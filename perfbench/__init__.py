"""Request-level benchmark for the quasilang JSON front end."""

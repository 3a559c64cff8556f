"""Exception types shared across the package, and the payload reader that
raises them on outside input.

Outside input is checked once, by its reader, and refused at its JSON path.
A rule between two fields is refused at the later one.  A rule that library
callers need too lives in one library helper, which the reader calls through
`Payload.check` to put its path in front.  Constructors trust what they are
given: values a reader has read, or values the code has built."""

from __future__ import annotations

import re


class QuasilangError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QuasilangError):
    """Input data violates a structural invariant (bad alphabet, non-witness, ...)."""


class PreconditionError(QuasilangError):
    """A documented precondition of an operation does not hold."""


class NoWitnessError(QuasilangError):
    """The requested order relation does not hold, so no witness exists."""


class AmbiguousExpressionError(QuasilangError):
    """A language expression failed the unambiguity certificate.

    Closed generating functions are only emitted for certified expressions;
    callers should fall back to truncated series from the automaton.
    """


class UnsupportedGroupError(QuasilangError):
    """No built-in character table construction applies to this group."""


# far above any served payload: principal-ideal expressions nest 3 deep, and
# a Segre power's vertices gain one level per product
MAX_DEPTH = 100

_RATIONAL = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")
_INTS, _STRS, _SCALARS = frozenset((int,)), frozenset((str,)), frozenset((str, int))


def _must(path: str, rule: str, value, by_type: bool = False) -> ValidationError:
    """"<path> must <rule>, got <value, or its type>"."""
    try:
        got = type(value).__name__ if by_type else repr(value)
    except (RecursionError, ValueError):  # nested too deep, or an int too long to print
        got = type(value).__name__
    return ValidationError(f"{path} must {rule}, got {got if len(got) <= 60 else got[:57] + '...'}")


class Payload:
    """A JSON value and the path that reached it, e.g. `rational.factors[0][0][0]`.

    `p[field]`, `p.get(field, default)` and `p.list()` give the readers of the
    children, refused past MAX_DEPTH levels.  Scalars and lists of scalars
    come back as plain values, with no reader per entry.  Each refusal is a
    ValidationError whose message starts with the path (a field of the root
    has its bare name), which is spelled out only then."""

    __slots__ = ("value", "key", "parent", "depth")

    def __init__(self, value, key: str | int = "", parent: Payload | None = None):
        self.value, self.key, self.parent = value, key, parent
        self.depth = 0 if parent is None else parent.depth + 1
        if self.depth > MAX_DEPTH:
            raise ValidationError(f"{self.path} nests deeper than {MAX_DEPTH} levels")

    @classmethod
    def of(cls, data, name: str) -> Payload:
        """`data` if it is a reader, else a root reader of `data` named `name`."""
        return data if isinstance(data, Payload) else cls(data, name)

    @property
    def path(self) -> str:
        head, key = "" if self.parent is None else self.parent.path, self.key
        return head + (f"[{key}]" if type(key) is int else f".{key}" if head and key else key)

    def error(self, message: str) -> ValidationError:
        return ValidationError(f"{self.path}: {message}")

    def expected(self, what: str, by_type: bool = False) -> ValidationError:
        return _must(self.path, "be " + what, self.value, by_type)

    def __getitem__(self, field: str) -> Payload:
        if type(self.value) is not dict:
            raise self.expected("a JSON object", True)
        try:
            return Payload(self.value[field], field, self)
        except KeyError:
            raise ValidationError(f"{Payload(None, field, self).path} is missing") from None

    def get(self, field: str, default=None) -> Payload:
        """The reader of `field`, or of `default` when the field is absent."""
        if type(self.value) is not dict:
            raise self.expected("a JSON object", True)
        return Payload(self.value.get(field, default), field, self)

    def check(self, build, *args, **kwargs):
        """build(*args, **kwargs), a library helper that checks a rule, with
        this reader's path in front of the ValidationError it raises."""
        try:
            return build(*args, **kwargs)
        except ValidationError as exc:
            raise self.error(str(exc)) from None

    def __len__(self) -> int:
        if type(self.value) is not list:
            raise self.expected("a list", True)
        return len(self.value)

    def _length(self, length: int | None) -> int:
        """The length of this list, which must be `length` if given."""
        n = len(self)
        if length is not None and n != length:
            raise ValidationError(f"{self.path} must have {length} entries, got {n}")
        return n

    def list(self, length: int | None = None) -> list:
        """The readers of the entries, of which there must be `length` if given."""
        self._length(length)
        return [Payload(x, i, self) for i, x in enumerate(self.value)]

    def distinct(self, values: tuple, noun: str) -> tuple:
        """`values`, read from this list, refused at the second entry of a repeat."""
        if len(set(values)) < len(values):
            i = next(i for i, v in enumerate(values) if v in values[:i])
            raise Payload(self.value[i], i, self).error(f"{noun} {self.value[i]!r} is repeated")
        return values

    def pairs(self, read_key, read_value, noun: str) -> dict:
        """{read_key(k): read_value(v)} from a list of [k, v] pairs; a key
        read twice is refused at its second entry."""
        out = {}
        for k, v in (pair.list(2) for pair in self.list()):
            key = read_key(k)
            if key in out:
                raise k.error(f"{noun} {k.value!r} is repeated")
            out[key] = read_value(v)
        return out

    def int(self, least: int | None = None, below: int | None = None) -> int:
        """An int (not a bool) of at least `least` and below `below`."""
        v = self.value
        if type(v) is not int:
            raise self.expected("an integer")
        if (least is not None and v < least) or (below is not None and v >= below):
            span = f"range({below})" if not least else f"range({least}, {below})"
            raise _must(self.path, f"be at least {least}" if below is None else f"lie in {span}", v)
        return v

    def ints(self, least: int | None = None, below: int | None = None, length: int | None = None) -> tuple:
        """A list of `int(least, below)` values as a tuple, checked in bulk,
        of which there must be `length` if given."""
        values = self.value
        if self._length(length) and (set(map(type, values)) - _INTS or (least is not None and min(values) < least)
                          or (below is not None and max(values) >= below)):
            for i, v in enumerate(values):
                Payload(v, i, self).int(least, below)
        return tuple(values)

    def row(self, bounds: tuple) -> tuple:
        """A list of one int in range(n) per bound n, as a tuple: an element
        of Z/n_1 x ... x Z/n_r."""
        return tuple([e.int(0, n) for e, n in zip(self.list(len(bounds)), bounds)])

    def rows(self, bounds: tuple, length: int | None = None) -> tuple:
        """A list of `row(bounds)` values as a tuple, read with no reader per
        row unless one is refused, of which there must be `length` if given."""
        self._length(length)
        out = []
        for row in self.value if type(self.value) is list else ():
            if type(row) is not list or len(row) != len(bounds):
                break
            for x, n in zip(row, bounds):
                if type(x) is not int or not 0 <= x < n:
                    break
            else:
                out.append(tuple(row))
                continue
            break
        if len(out) == len(self):
            return tuple(out)
        return tuple([row.row(bounds) for row in self.list()])

    def bool(self) -> bool:
        if type(self.value) is not bool:
            raise self.expected("true or false")
        return self.value

    def rationals(self) -> tuple:
        """A list of exact rationals: ints, or strings "p", "-p" or "p/q" with
        q > 0; floats, bools and decimal strings are refused."""
        values = self.value
        for i, v in enumerate(values if len(self) and set(map(type, values)) - _INTS else ()):
            if type(v) is not int and not (type(v) is str and _RATIONAL.fullmatch(v)):
                raise Payload(v, i, self).expected('an integer or a "p/q" string')
        return tuple(values)

    def strings(self) -> tuple:
        if len(self) and set(map(type, self.value)) - _STRS:
            raise next(e for e in self.list() if type(e.value) is not str).expected("a string")
        return tuple(self.value)

    def symbol(self):
        """A symbol: a string, an int, or a list of symbols read as a tuple."""
        return self._symbol(self.value, "")

    def symbols(self) -> tuple:
        if len(self) and set(map(type, self.value)) <= _SCALARS:
            return tuple(self.value)
        return tuple([self._symbol(v, i) for i, v in enumerate(self.value)])

    def _symbol(self, value, index):
        """The symbol `value`, entry `index` of this reader's list unless the
        index is "".  A list of scalars, or of scalars and such lists (a
        weighted letter ["a", [0]], a facet of tuple vertices), is read in
        one pass; deeper lists on an explicit stack of (entries, symbols so
        far, path) frames, so MAX_DEPTH bounds their depth."""
        if type(value) is str or type(value) is int:
            return value
        if type(value) is list:
            out = []
            for x in value:
                if type(x) is str or type(x) is int:
                    out.append(x)
                elif type(x) is list and set(map(type, x)) <= _SCALARS:
                    out.append(tuple(x))
                else:
                    break
            else:
                return tuple(out)
        stack = [(value, [], "" if index == "" else f"[{index}]")]
        while True:
            entries, out, at = stack[-1]
            if type(entries) is not list:
                raise _must(self.path + at, "be a string, an integer or a list", entries)
            if len(out) == len(entries):
                stack.pop()
                if not stack:
                    return tuple(out)
                stack[-1][1].append(tuple(out))
                continue
            x, at = entries[len(out)], f"{at}[{len(out)}]"
            if type(x) is str or type(x) is int:
                out.append(x)
            elif type(x) is list and self.depth + len(stack) >= MAX_DEPTH:
                raise ValidationError(f"{self.path}{at} nests deeper than {MAX_DEPTH} levels")
            else:  # a frame that is no list is refused when it is reached
                stack.append((x, [], at))

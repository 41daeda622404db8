"""The shared base of the frozen AST, model and result nodes.

A subclass lists its fields in ``__slots__`` (after any it inherits), the
defaults of its trailing fields in ``_defaults``, and may check a new node in
``_validate``.  A node equals a node of the same class with equal fields,
hashes as the tuple of those fields (the leading ``_compared`` ones when
set), prints as ``Name(field=value, ...)`` and refuses assignment.

Defining a class compiles no code.  Its ``__init__`` is the template for its
number of fields with the parameters renamed to the fields, so it takes
positional and keyword arguments as a hand-written one would.  The template
stores each argument through its slot's descriptor, past the refusing
``__setattr__``; a node holds its fields and nothing else.  ``==`` and
``hash`` read the compared fields from the slots through ``_values``, an
``operator.attrgetter``: it gives their tuple, or the value itself for a
class that compares one field.
"""

from operator import attrgetter


class Node:
    __slots__ = ()
    _defaults = ()
    _compared = None
    _validate = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            if c is not Node
                            for name in c.__dict__.get("__slots__", ()))
        if cls._fields:
            compared = cls._fields[:cls._compared]
            cls._values = attrgetter(*compared)
            if len(compared) == 1:
                cls.__eq__, cls.__hash__ = _eq_one, _hash_one
            cls.__init__ = _initializer(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return fields_repr(self, self._fields)


def fields_repr(obj, fields) -> str:
    return f"{type(obj).__qualname__}(" + ", ".join(
        f"{name}={getattr(obj, name)!r}" for name in fields) + ")"


def _eq_one(self, other):
    if other.__class__ is self.__class__:
        a, b = self._values(self), other._values(other)
        return a is b or a == b  # as the 1-tuples compare
    return NotImplemented


def _hash_one(self):
    return hash((self._values(self),))


def _init1(p, check):
    def init(self, a):
        p[0](self, a)
        if check:
            check(self)
    return init


def _init2(p, check):
    def init(self, a, b):
        p[0](self, a)
        p[1](self, b)
        if check:
            check(self)
    return init


def _init3(p, check):
    def init(self, a, b, c):
        p[0](self, a)
        p[1](self, b)
        p[2](self, c)
        if check:
            check(self)
    return init


def _init4(p, check):
    def init(self, a, b, c, d):
        p[0](self, a)
        p[1](self, b)
        p[2](self, c)
        p[3](self, d)
        if check:
            check(self)
    return init


def _init5(p, check):
    def init(self, a, b, c, d, e):
        p[0](self, a)
        p[1](self, b)
        p[2](self, c)
        p[3](self, d)
        p[4](self, e)
        if check:
            check(self)
    return init


_TEMPLATES = (None, _init1, _init2, _init3, _init4, _init5)


def _initializer(cls):
    fields = cls._fields
    init = _TEMPLATES[len(fields)](
        tuple(getattr(cls, name).__set__ for name in fields), cls._validate)
    # the template's parameters are its only locals
    init.__code__ = init.__code__.replace(co_varnames=("self",) + fields)
    init.__defaults__ = cls._defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init

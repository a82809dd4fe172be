"""The base class of the package's value objects (arrays, corner and
triangle functions, pairs, tableaux, frames, solids): immutable, equal to
an instance of their own class with equal ``_fields``, hashed by them and
shown as ``Name(field=value, ...)``.  Fields live in ``__dict__``, so
pickle and copy restore them; the verify reports pass ``mutable=True``.
A class's constructor reads and checks what it is given; ``_built`` takes
fields the library has computed itself and reads nothing again."""


class Value:
    _fields = ()

    def __init_subclass__(cls, mutable=False):
        if mutable:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or fields.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(fields)

    @classmethod
    def _built(cls, *fields):
        """An instance with these fields, taken as they are."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls._fields, fields))
        return obj

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

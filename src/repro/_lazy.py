"""PEP 562 lazy exports: a package's public names as one data table.

Every ``__init__.py`` of this project is a docstring, a table and one
call::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        "engine": ("Engine",),               # from .engine import Engine
        ".": ("calibrate",),                 # from . import calibrate
        "metrics_registry": "obs:registry",  # from .obs import registry as ..
    })

so importing a package loads none of its submodules; a name is
imported on first access and cached in the package namespace, after
which ``__getattr__`` is not consulted for it again.
"""

from importlib import import_module


def lazy_exports(namespace: dict, table: dict) -> tuple:
    """``(__getattr__, __dir__, __all__)`` for the package whose
    ``globals()`` is ``namespace``."""
    package = namespace["__name__"]
    source = {}  # exported name -> (submodule, attribute)
    for key, value in table.items():
        if isinstance(value, str):
            source[key] = tuple(value.split(":"))
        else:
            source.update((name, (key, name)) for name in value)

    def __getattr__(name: str):
        try:
            sub, attr = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if sub == ".":
            value = import_module(f"{package}.{attr}")
        else:
            value = getattr(import_module(f"{package}.{sub}"), attr)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(namespace.keys() | source.keys())

    # An export named like the submodule that defines it
    # (``runtime.forall``): the import system binds the *module* to that
    # name when the submodule first loads, so load it now and bind the
    # export over it -- whatever is imported first afterwards, the name
    # is the export.
    for name, (sub, _) in source.items():
        if name == sub:
            __getattr__(name)

    return __getattr__, __dir__, list(source)

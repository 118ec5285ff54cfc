"""Vienna Fortran surface-syntax layer.

A parser for distribution expressions / patterns / alignments /
processor declarations, declaration-statement parsing, program scopes
(connect classes do not cross procedure boundaries), and procedure
calls with implicit argument redistribution.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "declarations": ("Declaration", "parse_declaration"),
    "frontend": ("parse_program",),
    "parser": (
        "VFSyntaxError", "parse_alignment", "parse_dist_expr", "parse_pattern",
        "parse_processors", "parse_section",
    ),
    "procedures": ("FormalArg", "Procedure"),
    "program": ("Scope", "VFProgram"),
})

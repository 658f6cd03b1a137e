"""Python source for symbolic expressions and conditions.

One emitter serves both compiled forms: :meth:`Expr.compile` and
:meth:`BoolExpr.compile` read variables from a dict named ``env``, and
the kernel lowering (:mod:`repro.kernel.lower`) reads them from
``v_<name>`` locals.  Sharing it keeps the two forms identical operator
for operator, so their results are bit-identical.
"""

from __future__ import annotations

from .boolean import And, BoolConst, Cmp, Not, Or
from .expr import Add, CeilDiv, Const, Div, FloorDiv, Max, Min, Mod, Mul, Var

__all__ = ["emit", "env_lambda"]

_NARY = {
    Add: ("(", " + ", ")"),
    Mul: ("(", " * ", ")"),
    Max: ("max(", ", ", ")"),
    Min: ("min(", ", ", ")"),
    And: ("(", " and ", ")"),
    Or: ("(", " or ", ")"),
}
_BINARY = {
    Div: "({} / {})",
    Mod: "({} % {})",
    FloorDiv: "_fd({}, {})",
    CeilDiv: "_cd({}, {})",
}


def emit(node, name, opaque) -> str:
    """Source fragment evaluating *node*, an ``Expr`` or a ``BoolExpr``.

    ``name(var)`` spells a variable reference.  ``opaque(node)`` returns
    the source for a node kind this function does not lower (``Sum``,
    ``Cond``, ``Index``, ...), or raises.  Floor and ceiling division
    call ``_fd`` and ``_cd``, which the evaluating namespace provides.
    """
    ty = type(node)
    nary = _NARY.get(ty)
    if nary is not None:
        head, sep, tail = nary
        return head + sep.join(emit(a, name, opaque) for a in node.args) + tail
    binary = _BINARY.get(ty)
    if binary is not None:
        return binary.format(emit(node.a, name, opaque), emit(node.b, name, opaque))
    if ty is Cmp:
        return f"({emit(node.a, name, opaque)} {node.op} {emit(node.b, name, opaque)})"
    if ty is Not:
        return f"(not {emit(node.arg, name, opaque)})"
    if ty is Const:
        return f"({node.value!r})"
    if ty is Var:
        return name(node.name)
    if ty is BoolConst:
        return "True" if node.value else "False"
    return opaque(node)


def _env_var(var: str) -> str:
    return f"env[{var!r}]"


def env_lambda(node):
    """``lambda env: ...`` evaluating *node* in one call.

    A node :func:`emit` does not lower is evaluated by a captured
    reference to its own ``evaluate``.  An unbound variable raises
    ``KeyError``; the ``compile()`` wrappers turn that into the tree
    walk's :class:`~repro.symbolic.expr.UnboundVariableError`.
    """
    ns: dict = {"_fd": FloorDiv._apply, "_cd": CeilDiv._apply}

    def captured(n) -> str:
        ref = f"_r{len(ns)}"
        ns[ref] = n.evaluate
        return f"{ref}(env)"

    return eval("lambda env: " + emit(node, _env_var, captured), ns)  # noqa: PGH001 - controlled codegen

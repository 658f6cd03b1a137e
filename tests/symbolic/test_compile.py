"""Tests for Expr.compile / BoolExpr.compile: the symbolic fast path.

AM-mode runs evaluate condensed scaling functions per delayed task;
``compile()`` lowers an expression tree to one Python closure.  The
contract: the closure computes *exactly* what ``evaluate`` computes —
same values, same errors — and is cached, composable, and rebuilt
transparently after pickling.  The same emitter spells the kernel
lowering's expressions, so its output there is pinned too.
"""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import (
    And,
    Cmp,
    Cond,
    Const,
    Eq,
    FloorDiv,
    Ge,
    Index,
    Lt,
    Max,
    Min,
    Mod,
    Not,
    Or,
    Sum,
    UnboundVariableError,
    Var,
    ceil_div,
)
from repro.symbolic.emit import env_lambda

VARS = ("N", "P", "b", "myid")


@st.composite
def envs(draw):
    return {name: draw(st.integers(min_value=1, max_value=1000)) for name in VARS}


def exprs(max_leaves=6):
    leaf = st.one_of(
        st.integers(min_value=-50, max_value=50).map(Const),
        st.sampled_from(VARS).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            st.tuples(children, children).map(lambda ab: Min.make(ab[0], ab[1])),
            st.tuples(children, children).map(lambda ab: Max.make(ab[0], ab[1])),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


N, P, b = Var("N"), Var("P"), Var("b")


class TestExprCompile:
    @given(exprs(), envs())
    @settings(max_examples=200)
    def test_compiled_matches_evaluate(self, e, env):
        assert e.compile()(env) == e.evaluate(env)

    def test_division_family_matches_evaluate(self):
        env = {"N": 17, "P": 5}
        for e in (N / P, FloorDiv.make(N, P), ceil_div(N, P), Mod.make(N, P)):
            assert e.compile()(env) == e.evaluate(env)

    def test_closure_is_cached(self):
        e = N * P + Const(3)
        assert e.compile() is e.compile()

    def test_missing_binding_raises_same_error(self):
        e = N * P + b
        with pytest.raises(UnboundVariableError) as via_eval:
            e.evaluate({"N": 4})
        with pytest.raises(UnboundVariableError) as via_compiled:
            e.compile()({"N": 4})
        assert str(via_compiled.value) == str(via_eval.value)

    def test_pickle_roundtrip_recompiles(self):
        e = Max.make(N, P) + ceil_div(N, Const(4))
        e.compile()  # populate the caches that must NOT be pickled
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e
        env = {"N": 9, "P": 2}
        assert clone.compile()(env) == e.evaluate(env)


class TestBoolExprCompile:
    CASES = [
        Lt(N, P),
        Ge(N * Const(2), P + b),
        Eq(Mod.make(N, P), Const(0)),
        And.make(Lt(N, P), Lt(P, b)),
        And.make(Lt(N, P), Lt(P, b), Lt(b, Const(100))),
        Or.make(Ge(N, P), Ge(P, b)),
        Or.make(Ge(N, P), Ge(P, b), Eq(N, b)),
        Not.make(And.make(Lt(N, P), Ge(b, Const(3)))),
        # 4-wide junctions exercise the general all()/any() fallback
        And.make(Lt(N, Const(900)), Lt(P, Const(900)), Lt(b, Const(900)),
                 Ge(N + P, Const(2))),
        Or.make(Eq(N, Const(-1)), Eq(P, Const(-1)), Eq(b, Const(-1)),
                Ge(N, Const(1))),
    ]

    @given(envs())
    @settings(max_examples=100)
    def test_compiled_matches_evaluate(self, env):
        for c in self.CASES:
            assert c.compile()(env) == c.evaluate(env)

    def test_closure_is_cached(self):
        c = And.make(Lt(N, P), Ge(b, Const(1)))
        assert c.compile() is c.compile()

    def test_missing_binding_raises_same_error(self):
        c = And.make(Lt(N, P), Ge(b, Const(1)))
        with pytest.raises(UnboundVariableError) as via_eval:
            c.evaluate({"N": 1, "P": 2})
        with pytest.raises(UnboundVariableError) as via_compiled:
            c.compile()({"N": 1, "P": 2})
        assert str(via_compiled.value) == str(via_eval.value)

    def test_junction_shortcircuit_matches_evaluate(self):
        # `and` must not evaluate past the first false operand — the
        # unbound right-hand side is unreachable in both implementations
        c = And.make(Lt(N, Const(0)), Lt(Var("missing"), Const(1)))
        env = {"N": 5}
        assert c.evaluate(env) is False
        assert c.compile()(env) is False

    def test_pickle_roundtrip_recompiles(self):
        c = Or.make(Lt(N, P), Not.make(Eq(b, Const(7))))
        c.compile()
        clone = pickle.loads(pickle.dumps(c))
        assert clone == c
        env = {"N": 3, "P": 9, "b": 7}
        assert clone.compile()(env) == c.evaluate(env)


# -- conditions over extended nodes -------------------------------------------

ARR = (5, 17, 42)


def extended_exprs():
    """Arithmetic that also holds nodes the emitter leaves to ``evaluate``."""
    base = exprs(max_leaves=4)
    i = Var("i")
    return st.one_of(
        base,
        base.map(lambda e: Sum.make("i", Const(1), Mod.make(Var("b"), Const(7)), i * e)),
        base.map(lambda e: Index.make("arr", Mod.make(e, Const(3)))),
        st.tuples(base, base).map(lambda ab: Cond.make(Lt(ab[0], ab[1]), ab[0], ab[1])),
        st.tuples(base, base).map(lambda ab: ab[0] + Cond.make(Ge(ab[1], Const(0)), ab[1], 1)),
    )


def conds():
    leaf = st.tuples(
        st.sampled_from(("<", "<=", ">", ">=", "==", "!=")), extended_exprs(), extended_exprs()
    ).map(lambda t: Cmp.make(*t))

    def extend(children):
        wide = st.lists(children, min_size=2, max_size=5)
        return st.one_of(
            wide.map(lambda cs: And.make(*cs)),
            wide.map(lambda cs: Or.make(*cs)),
            children.map(Not.make),
        )

    return st.recursive(leaf, extend, max_leaves=10)


class TestConditionLowering:
    @given(conds(), envs())
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_evaluate(self, c, env):
        env["arr"] = ARR
        assert c.compile()(env) == c.evaluate(env)

    @given(conds(), envs(), st.sampled_from(VARS))
    @settings(max_examples=100, deadline=None)
    def test_missing_binding_matches_evaluate(self, c, env, missing):
        del env[missing]
        env["arr"] = ARR
        try:
            want = c.evaluate(env)
        except UnboundVariableError as exc:
            with pytest.raises(UnboundVariableError) as got:
                c.compile()(env)
            assert str(got.value) == str(exc)
        else:
            assert c.compile()(env) == want

    @given(conds(), envs())
    @settings(max_examples=50, deadline=None)
    def test_pickle_roundtrip_recompiles(self, c, env):
        env["arr"] = ARR
        c.compile()
        clone = pickle.loads(pickle.dumps(c))
        assert clone == c
        assert clone.compile()(env) == c.evaluate(env)

    def test_condition_is_one_lambda(self):
        # one eval'd function, no nested closures; the two extended nodes
        # are captured ``evaluate`` references in its namespace
        i = Var("i")
        c = And.make(
            Lt(N, P),
            Ge(Sum.make("i", Const(1), b, i * N), P),
            Not.make(Or.make(Eq(N, b), Eq(P, b))),
            Eq(Index.make("arr", Mod.make(N, Const(3))), Const(17)),
        )
        raw = env_lambda(c)
        assert raw.__name__ == "<lambda>" and raw.__closure__ is None
        assert sorted(k for k in raw.__globals__ if k.startswith("_r")) == ["_r2", "_r3"]
        env = {"N": 4, "P": 9, "b": 3, "arr": ARR}
        assert c.compile()(env) is c.evaluate(env) is True


# -- the kernel spelling of the shared emitter ---------------------------------

#: SHA-256 of each paper app's generated kernel module (or the reason it
#: does not lower).  A change to these is a change to the generated-code
#: protocol's output: update them on purpose, and bump ``KERNEL_ABI``
#: when callers of the generated code must change too.
KERNEL_SOURCE_SHA256 = {
    "nas_sp/original": "unsupported: array 'cell_size_x' is materialized (data-dependent control flow)",
    "nas_sp/simplified": "unsupported: array 'cell_size_x' is materialized (data-dependent control flow)",
    "nas_sp/instrumented": "unsupported: array 'cell_size_x' is materialized (data-dependent control flow)",
    "sample_nearest_neighbor/original": "53390773813b325ebc837fd0748dbe4e53d343f949e8edddf4b5a4b07050653f",
    "sample_nearest_neighbor/simplified": "bde297c7d74806bd2c3d54e070bb94120aab13544a0080318e8f100357782077",
    "sample_nearest_neighbor/instrumented": "55a6c8071043650d58dbd4d658c32bf3974c03fd485c00087e35b6b028aab04e",
    "sample_wavefront/original": "fff01ebf6f4c9ec77389fdf31a088bb54803c629fd68f436ff8d802ae441c8f4",
    "sample_wavefront/simplified": "6c5b67f02b955859a5eb6307b67c4dc8059e6e0894e90a1e9e48f9ef2cf30923",
    "sample_wavefront/instrumented": "7f25239a20c87e1a3a4736695c08fb2b7dc440ef2469c67e35fcf557d267c694",
    "sweep3d/original": "fcbe6d8528c81a324652b890538d206eb458b2106efe1051b7e08f2bdaf53658",
    "sweep3d/simplified": "4a55996c5689de2af5c75c60b5ef11d3d8ac6735eb31d195ce277c5b1a210f7e",
    "sweep3d/instrumented": "f47ccc1cea8157c706c3dc8612d5d542d31d300956e9e2d10449d088c379bb8a",
    "tomcatv/original": "5846d3a47d32ae70d6c4ac4c9666fc034aeb7fa3c3bd81aeacdf6d9dd5ce6a3c",
    "tomcatv/simplified": "803513ffb8cbd72d9e1f717c79f64704c4a85159fc9b65dad90846a79427e866",
    "tomcatv/instrumented": "b57c80fe4692c9f89900f7b59b7600ca0787092cb4435c6fc8987ecff3bf00b3",
    "tomcatv_hpf/original": "01487b5612b9d92402f37fe70ce22683783bae3bedb8b718a6a1b8c97dbded0b",
    "tomcatv_hpf/simplified": "52603e944d2cdbee87f11d3430baa0cc5197cb17c806ab01c2aae9cd2d245aba",
    "tomcatv_hpf/instrumented": "361c6d3250e4ec12be5379649f075aae9c8ffe5e4b71d47963369f1d61dc143c",
}


def test_paper_app_kernel_source_is_pinned():
    from repro.cli import APPS
    from repro.codegen.pipeline import compile_program
    from repro.kernel import KERNEL_ABI, UnsupportedConstructError, lower_program

    got = {}
    for name, (build, _inputs) in sorted(APPS.items()):
        program = build()
        compiled = compile_program(program)
        for kind, prog in (("original", program), ("simplified", compiled.simplified),
                           ("instrumented", compiled.instrumented)):
            try:
                source = lower_program(prog).source
                got[f"{name}/{kind}"] = hashlib.sha256(source.encode()).hexdigest()
            except UnsupportedConstructError as exc:
                got[f"{name}/{kind}"] = f"unsupported: {exc}"
    assert got == KERNEL_SOURCE_SHA256
    assert KERNEL_ABI == 1

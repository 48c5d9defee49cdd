"""Tests for the shared infrastructure: names, telescopes, errors, import order."""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro import cc
from repro.common import NameSupply, base_name, fresh, is_machine_name
from repro.common.errors import TypeCheckError
from repro.common.telescope import Binding, Context


class TestFreshNames:
    def test_fresh_is_fresh(self):
        names = {fresh("x") for _ in range(100)}
        assert len(names) == 100

    def test_fresh_strips_old_suffix(self):
        first = fresh("x")
        second = fresh(first)
        assert base_name(second) == "x"

    def test_is_machine_name(self):
        assert is_machine_name(fresh("x"))
        assert not is_machine_name("x")

    def test_base_name(self):
        assert base_name("x") == "x"
        assert base_name(fresh("foo")) == "foo"

    def test_empty_base_defaults(self):
        assert base_name(fresh("")) == "x"


class TestNameSupply:
    def test_deterministic(self):
        a = NameSupply()
        b = NameSupply()
        assert [a.fresh("x") for _ in range(3)] == [b.fresh("x") for _ in range(3)]

    def test_no_repeats(self):
        supply = NameSupply()
        names = [supply.fresh("x") for _ in range(50)]
        assert len(set(names)) == 50

    def test_reserve(self):
        supply = NameSupply()
        supply.reserve("x")
        assert supply.fresh("x") != "x"

    def test_prefix_fallback(self):
        supply = NameSupply(prefix="tmp")
        assert supply.fresh().startswith("tmp")


class TestTelescope:
    def test_empty(self):
        ctx = Context.empty()
        assert len(ctx) == 0
        assert ctx.lookup("x") is None
        assert "x" not in ctx
        assert str(ctx) == "·"

    def test_extend_and_lookup(self):
        ctx = Context.empty().extend("x", cc.Nat())
        binding = ctx.lookup("x")
        assert binding is not None
        assert binding.type_ == cc.Nat()
        assert not binding.is_definition

    def test_define(self):
        ctx = Context.empty().define("two", cc.nat_literal(2), cc.Nat())
        binding = ctx.lookup("two")
        assert binding.is_definition
        assert binding.definition == cc.nat_literal(2)

    def test_immutability(self):
        base = Context.empty()
        extended = base.extend("x", cc.Nat())
        assert len(base) == 0
        assert len(extended) == 1

    def test_shadowing_inner_wins(self):
        ctx = Context.empty().extend("x", cc.Nat()).extend("x", cc.Bool())
        assert ctx.lookup("x").type_ == cc.Bool()

    def test_position_and_order(self):
        ctx = Context.empty().extend("a", cc.Nat()).extend("b", cc.Bool())
        assert ctx.position("a") == 0
        assert ctx.position("b") == 1
        assert ctx.names() == ["a", "b"]

    def test_position_missing_raises(self):
        with pytest.raises(KeyError):
            Context.empty().position("ghost")

    def test_prefix(self):
        ctx = Context.empty().extend("a", cc.Nat()).extend("b", cc.Bool()).extend("c", cc.Nat())
        prefix = ctx.prefix("b")
        assert prefix.names() == ["a"]

    def test_iteration(self):
        ctx = Context.empty().extend("a", cc.Nat()).extend("b", cc.Bool())
        assert [b.name for b in ctx] == ["a", "b"]

    def test_binding_dataclass(self):
        binding = Binding("x", cc.Nat())
        assert binding.definition is None


class TestErrors:
    def test_notes_accumulate(self):
        error = TypeCheckError("boom")
        error.with_note("checking f x").with_note("checking the body")
        text = str(error)
        assert "boom" in text
        assert "checking f x" in text

    def test_hierarchy(self):
        from repro.common import LinkError, ParseError, ReproError, TranslationError

        for cls in (ParseError, TranslationError, LinkError, TypeCheckError):
            assert issubclass(cls, ReproError)


_SRC = os.path.dirname(os.path.dirname(repro.__file__))
_SUBPACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
)


class TestImportOrder:
    """Every subpackage imports as the first import of a fresh interpreter.

    Import cycles only bite when the cycle is entered from a particular
    module, and a test process has usually imported half the package
    already — so each import runs in its own subprocess.
    """

    @pytest.mark.parametrize("package", _SUBPACKAGES)
    def test_first_import(self, package):
        env = {**os.environ, "PYTHONPATH": _SRC}
        result = subprocess.run(
            [sys.executable, "-c", f"import {package}"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr

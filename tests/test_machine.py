"""Tests for code hoisting and the CBV machine (the §3 'statically
allocate code' story, §7 cost discussion)."""

import pytest

from repro import cc, cccc
from repro.closconv import compile_term
from repro.common.errors import TranslationError, TypeCheckError
from repro.machine import (
    MachineError,
    MachineStats,
    MNat,
    Program,
    hoist,
    machine_observation,
    program_context,
    run,
    unhoist,
)
from tests.corpus import CLOSED_GROUND_PROGRAMS, closed_ground_ids


def _compile_closed(term: cc.Term) -> cccc.Term:
    return compile_term(cc.Context.empty(), term, verify=False).target


class TestHoisting:
    def test_all_code_hoisted(self):
        target = _compile_closed(cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x"))))
        program = hoist(target)
        assert program.code_count == 2
        assert not any(
            isinstance(sub, cccc.CodeLam) for sub in cccc.subterms(program.main)
        )

    def test_hoisted_code_entries_closed_relative_to_table(self):
        target = _compile_closed(cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x"))))
        program = hoist(target)
        labels = set(program.code_table)
        for code in program.code_table.values():
            assert cccc.free_vars(code) <= labels

    def test_deduplication(self):
        # Two identical λ's share one code block.
        term = cc.Pair(
            cc.Lam("x", cc.Nat(), cc.Var("x")),
            cc.Lam("x", cc.Nat(), cc.Var("x")),
            cc.Sigma("f", cc.arrow(cc.Nat(), cc.Nat()), cc.arrow(cc.Nat(), cc.Nat())),
        )
        program = hoist(_compile_closed(term))
        assert program.code_count == 1

    def test_unhoist_inverts(self):
        target = _compile_closed(
            cc.make_app(
                cc.Lam("f", cc.arrow(cc.Nat(), cc.Nat()), cc.App(cc.Var("f"), cc.Zero())),
                cc.Lam("y", cc.Nat(), cc.Succ(cc.Var("y"))),
            )
        )
        program = hoist(target)
        assert cccc.alpha_equal(unhoist(program), target)

    def test_program_context_typechecks_main(self):
        target = _compile_closed(cc.make_app(
            cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x"))), cc.nat_literal(1)
        ))
        program = hoist(target)
        ctx = program_context(program)
        inferred = cccc.infer(ctx, program.main)
        assert cccc.equivalent(ctx, inferred, cccc.Nat())

    @staticmethod
    def _nested_program():
        # code$0 is the inner λy, code$1 the outer λx, which names code$0.
        program = hoist(_compile_closed(
            cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x")))
        ))
        assert list(program.code_table) == ["code$0", "code$1"]
        assert cccc.free_vars(program.code_table["code$1"]) == {"code$0"}
        return program

    def test_program_context_rejects_an_ill_typed_block(self):
        program = self._nested_program()
        code = program.code_table["code$0"]
        table = dict(program.code_table)
        table["code$0"] = cccc.CodeLam(
            code.env_name, code.env_type, code.arg_name, code.arg_type,
            cccc.Succ(cccc.BoolLit(True)),
        )
        with pytest.raises(TypeCheckError):
            program_context(Program(table, program.main))

    def test_program_context_rejects_a_block_naming_a_later_label(self):
        program = self._nested_program()
        # Swap the two blocks' order: code$1 now comes first and names
        # code$0, which the table has not defined yet.
        table = {label: program.code_table[label] for label in ("code$1", "code$0")}
        with pytest.raises(TypeCheckError, match="code\\$0"):
            program_context(Program(table, program.main))

    def test_open_code_rejected(self):
        open_code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("stray"))
        with pytest.raises(TranslationError, match="open code"):
            hoist(open_code)

    def test_program_str(self):
        program = hoist(_compile_closed(cc.Lam("x", cc.Nat(), cc.Var("x"))))
        text = str(program)
        assert "code$0" in text and "main" in text


class TestMachine:
    @pytest.mark.parametrize(
        "name, term, expected", CLOSED_GROUND_PROGRAMS, ids=closed_ground_ids()
    )
    def test_ground_programs(self, name, term, expected):
        program = hoist(_compile_closed(term))
        value, _stats = run(program)
        assert machine_observation(value) == expected

    def test_machine_agrees_with_normalizer(self, empty_target):
        term = cc.make_app(
            cc.Lam("f", cc.arrow(cc.Nat(), cc.Nat()),
                   cc.App(cc.Var("f"), cc.App(cc.Var("f"), cc.Zero()))),
            cc.Lam("y", cc.Nat(), cc.Succ(cc.Var("y"))),
        )
        target = _compile_closed(term)
        normal = cccc.normalize(empty_target, target)
        value, _ = run(hoist(target))
        assert machine_observation(value) == cccc.nat_value(normal) == 2

    def test_activation_records_small(self):
        """Code runs with exactly env + arg, plus any code-local lets."""
        term = cc.make_app(
            cc.Lam("a", cc.Nat(), cc.Lam("b", cc.Nat(), cc.Lam("c", cc.Nat(), cc.Var("a")))),
            cc.nat_literal(1), cc.nat_literal(2), cc.nat_literal(3),
        )
        program = hoist(_compile_closed(term))
        _, stats = run(program)
        # frames: {env, arg} plus let-bound projections of captured vars —
        # bounded by the environment size, never the whole ambient scope.
        assert stats.max_frame_size <= 5

    def test_counters_populated(self):
        term = cc.make_app(cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x"))), cc.Zero())
        _, stats = run(hoist(_compile_closed(term)))
        assert stats.closure_allocs >= 1
        assert stats.code_lookups >= 1
        assert stats.steps > 0

    def test_types_are_inert_values(self):
        # id Nat 3: Nat flows through the machine as an MType.
        from repro.cc.prelude import polymorphic_identity

        term = cc.make_app(polymorphic_identity, cc.Nat(), cc.nat_literal(3))
        value, _ = run(hoist(_compile_closed(term)))
        assert machine_observation(value) == 3

    def test_unknown_label_fails(self):
        from repro.machine import Program

        bad = Program({}, cccc.App(cccc.Clo(cccc.Var("code$404"), cccc.UnitVal()), cccc.Zero()))
        with pytest.raises(MachineError):
            run(bad)

    def test_applying_non_closure_fails(self):
        program = hoist(cccc.App(cccc.Zero(), cccc.Zero()))
        with pytest.raises(MachineError, match="non-closure"):
            run(program)

    def test_stats_reusable(self):
        stats = MachineStats()
        term = _compile_closed(cc.nat_literal(1))
        run(hoist(term), stats)
        first = stats.steps
        run(hoist(term), stats)
        assert stats.steps > first  # accumulates


class TestDeepHoist:
    """Hoisting is iterative: ~10k-node-deep terms lift without recursion."""

    DEPTH = 10_000

    def test_deep_application_spine(self):
        # A code literal at the bottom of a 10k-deep App spine: the old
        # recursive walk exceeded the Python stack here.
        code = cccc.CodeLam("env", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        term: cccc.Term = cccc.Clo(code, cccc.UnitVal())
        for _ in range(self.DEPTH):
            term = cccc.App(term, cccc.Zero())
        program = hoist(term)
        assert program.code_count == 1
        assert not any(
            isinstance(sub, cccc.CodeLam) for sub in cccc.subterms(program.main)
        )

    def test_deep_succ_chain_roundtrips(self):
        term = cccc.nat_literal(self.DEPTH)
        program = hoist(term)
        assert program.code_count == 0
        # No code anywhere: the main expression is the input, shared.
        assert program.main is term
        assert cccc.alpha_equal(unhoist(program), term)

    def test_deep_unhoist_roundtrip(self):
        # Reconstituting a 10k-deep program substitutes code blocks back
        # through the (iterative) kernel substitution engine and compares
        # with the (iterative) α-equivalence walk — no recursion limit.
        code = cccc.CodeLam("env", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        term: cccc.Term = cccc.Clo(code, cccc.UnitVal())
        for _ in range(self.DEPTH):
            term = cccc.App(term, cccc.Zero())
        program = hoist(term)
        assert program.code_count == 1
        assert cccc.alpha_equal(unhoist(program), term)

    def test_deep_pair_tower_with_code(self):
        code = cccc.CodeLam("env", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        term: cccc.Term = cccc.Clo(code, cccc.UnitVal())
        annot: cccc.Term = cccc.Nat()
        for _ in range(5_000):
            term = cccc.Pair(term, cccc.Zero(), annot)
        program = hoist(term)
        assert program.code_count == 1
        assert not any(
            isinstance(sub, cccc.CodeLam) for sub in cccc.subterms(program.main)
        )
        assert cccc.term_size(program.main) == cccc.term_size(term) - cccc.term_size(code) + 1

    def test_deep_open_code_still_rejected(self):
        open_code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("stray"))
        term: cccc.Term = cccc.Clo(open_code, cccc.UnitVal())
        for _ in range(self.DEPTH):
            term = cccc.App(term, cccc.Zero())
        with pytest.raises(TranslationError, match="open code"):
            hoist(term)


class TestDeepPrograms:
    """The machine evaluates ~10k-node-deep programs (deep-stack runner)."""

    def test_deep_main_term(self):
        from repro.machine import Program

        program = Program({}, cccc.nat_literal(10_000))
        value, stats = run(program)
        assert value == MNat(10_000)

    def test_deep_code_table_body(self):
        # Hoisting moves deep bodies out of main and into the code table;
        # the runner's size must count them (main itself stays tiny).
        from repro.machine import Program

        code = cccc.CodeLam("env", cccc.Unit(), "a", cccc.Unit(), cccc.nat_literal(6_000))
        program = Program(
            {"code$0": code},
            cccc.App(cccc.Clo(cccc.Var("code$0"), cccc.UnitVal()), cccc.UnitVal()),
        )
        value, stats = run(program)
        assert value == MNat(6_000)
        assert stats.env_allocs == 1
        assert stats.max_env_size == 2  # exactly {environment, argument}

    def test_deep_let_chain(self):
        from repro.machine import Program

        body: cccc.Term = cccc.Zero()
        for index in range(5_000):
            body = cccc.Let(f"x{index}", cccc.Zero(), cccc.Nat(), body)
        value, stats = run(Program({}, body))
        assert value == MNat(0)
        assert stats.env_allocs == 5_000

    def test_size_is_computed_once(self, monkeypatch):
        # A deep run retries on the deep-stack runner, sized by
        # Program.size, which walks main and the code table once.
        from repro.backend.compile import compile_program
        from repro.machine import Program

        code = cccc.CodeLam("env", cccc.Unit(), "a", cccc.Unit(), cccc.nat_literal(3_000))
        program = Program(
            {"code$0": code},
            cccc.App(cccc.Clo(cccc.Var("code$0"), cccc.UnitVal()), cccc.UnitVal()),
        )
        walks = []
        term_size = cccc.term_size
        monkeypatch.setattr(cccc, "term_size", lambda term: walks.append(term) or term_size(term))
        for _ in range(3):
            assert run(program)[0] == MNat(3_000)
        assert program.size == term_size(program.main) + term_size(code)
        assert len(walks) == 2  # main and the one code block, on the first run only
        compiled = compile_program(program)
        assert compiled.execute()[0] == MNat(3_000)

"""The duality law (``tools/duality.py``): a program and its conic dual
(``conftest.dual_program``), both solved at the benchmark's fuzz settings,
pair up: Optimal with Optimal at the same eta, Infeasible with Unbounded or
Infeasible, and Unbounded with Infeasible."""

import pytest

from conftest import bundled_programs, corpus_draw, corpus_pick
from duality import law_break, main, solve_pair
from screwgrasp.problem import compile_program
from screwgrasp.scenarios import builtin_scenario


def test_bundled_programs():
    assert [law_break(*solve_pair(prog)) for prog in bundled_programs()] == [None] * 6


def test_corpus_pick():
    """200 draws of the fuzz corpus picked with ``default_rng(22)``."""
    breaks = {(s, t): law_break(*solve_pair(compile_program(p, d))) for s, t, p, d in corpus_pick(200, 22)}
    assert {draw: why for draw, why in breaks.items() if why is not None} == {}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="defect 2: the primal ends NumericalFailure, the dual Optimal (ROADMAP items 13 and 17)")
def test_defect_2():
    assert law_break(*solve_pair(compile_program(*corpus_draw(2, 9)))) is None


_FALSE_UNBOUNDED = pytest.mark.xfail(strict=True, raises=AssertionError,
                                     reason="false Unbounded: the presolve's free-ray exit does not check its ray on "
                                            "the original program, and the dual is Optimal (ROADMAP item 3)")


@pytest.mark.parametrize("name, field, direction", [
    pytest.param("door_handle", "e_n", +1, marks=_FALSE_UNBOUNDED),
    pytest.param("door_handle", "e_n", -1, marks=_FALSE_UNBOUNDED),
    pytest.param("cuboid_pivot", "e_cn", +1, marks=_FALSE_UNBOUNDED),
    ("cuboid_pivot", "e_cn", -1),
])
def test_tiny_contact_coefficient(name, field, direction):
    """A coefficient of 1e-45: the door's dual is Optimal at 0.11999999974 in
    both directions and the pivot's at 3.5804516545 in direction +, where the
    primal reports Unbounded."""
    prog = compile_program(builtin_scenario(name, **{field: 1e-45}).problem(), direction)
    assert law_break(*solve_pair(prog)) is None


def test_tool_on_a_slice(capsys):
    """The tool's run over the first 20 draws of the corpus."""
    assert main(["--draws", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "0 breaks in 20 draws"
    assert sum(int(line.split(": ")[1]) for line in lines[:-2]) == 20

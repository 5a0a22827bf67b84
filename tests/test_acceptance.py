"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them inline).

Criterion 7 is split: 7a quadrature-vs-analytic, 7b late-time decay ratio,
7c per-node reversibility. 7b is expected to fail: the shipped sin(psi/2)
weight has transverse components that vanish identically (odd lam
integrand against even omega(lam)), so its window peak is round-off, which
counts as no signal, and its ratio reads inf. The dephasing-demo-tilted
preset and the README's dephasing recipe cover the tilted-lambda variant
with a real decaying signal.
"""
import copy

import pytest

from nvne import dynamics
from nvne.cli import run_scenario
from nvne.presets import PRESETS


def run_preset(name):
    return run_scenario(PRESETS[name])


def emit_and_check(criterion, report, budget_s, only=None, expect_note=""):
    failed = []
    for a in report.assertions:
        if only is not None and a.name not in only:
            continue
        if not a.passed:
            failed.append(a)
    status = "PASS" if not failed else "FAIL"
    print(f"[{criterion}] {status} wall={report.wall_clock_s:.1f}s {expect_note}")
    for a in report.assertions:
        if only is None or a.name in only:
            print("    " + a.line())
    assert report.wall_clock_s < budget_s, (
        f"{criterion} exceeded its runtime budget: {report.wall_clock_s:.1f}s >= {budget_s}s")
    assert not failed, f"{criterion}: " + "; ".join(a.line() for a in failed)


def test_criterion1_isospectrality():
    report = run_preset("criterion1-isospectrality")
    emit_and_check("criterion 1: isospectrality", report, budget_s=30.0)


def test_criterion2_pure_state_reduction():
    report = run_preset("criterion2-pure-state")
    emit_and_check("criterion 2: pure-state reduction", report, budget_s=10.0)


def test_criterion2_catches_a_step_error_of_every_run(monkeypatch):
    # steps 1 % too long shift a q = 1 run as much as the q-runs, so only the
    # exact linear solution, which takes no steps, sees them
    cfg = copy.deepcopy(PRESETS["criterion2-pure-state"])
    cfg["integrator"]["t_final"] = 1.0
    report = run_scenario(cfg)
    assert report.passed and report.assertions[0].value > 0.0
    advance = dynamics._advance
    monkeypatch.setattr(dynamics, "_advance",
                        lambda v, h, kernel, dt, *rest: advance(v, h, kernel, 1.01 * dt, *rest))
    assert not run_scenario(cfg).passed


def test_criterion3_larmor_law():
    report = run_preset("criterion3-larmor")
    emit_and_check("criterion 3: Larmor law", report, budget_s=20.0)


def test_criterion4_equilibrium():
    report = run_preset("criterion4-equilibrium")
    emit_and_check("criterion 4: equilibrium", report, budget_s=1.0)


def test_criterion5_dynamic_stability():
    report = run_preset("criterion5-stability")
    emit_and_check("criterion 5: dynamic stability", report, budget_s=10.0)


def test_criterion6_composite_closure():
    report = run_preset("criterion6-composite-closure")
    emit_and_check("criterion 6: composite closure", report, budget_s=60.0)


@pytest.fixture(scope="module")
def criterion7_report():
    return run_preset("criterion7-dephasing")


def test_criterion7a_quadrature_matches_analytic(criterion7_report):
    emit_and_check("criterion 7a: quadrature vs analytic", criterion7_report,
                   budget_s=180.0, only={"analytic_match"})


def test_criterion7b_decay_ratio_literal(criterion7_report):
    # literal check from the criterion; mathematically the signal is zero
    # for this weight at every t, so this compares noise to noise and
    # cannot pass honestly (documented defect; do not "fix" by switching
    # the weight here)
    emit_and_check(
        "criterion 7b: off-diagonal decay",
        criterion7_report,
        budget_s=180.0,
        only={"decay_ratio"},
        expect_note="(expected to fail: sin(psi/2) weight has no transverse signal)",
    )


def test_criterion7c_node_reversibility(criterion7_report):
    emit_and_check("criterion 7c: microscopic reversibility", criterion7_report,
                   budget_s=180.0, only={"node_eigenvalue_drift", "node_crosscheck"})


def test_criterion8_bracket_algebra():
    report = run_preset("criterion8-bracket-algebra")
    emit_and_check("criterion 8: bracket algebra", report, budget_s=30.0)


def test_criterion9_convergence_order():
    report = run_preset("criterion9-convergence")
    emit_and_check("criterion 9: convergence order", report, budget_s=10.0)

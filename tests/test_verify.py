"""The seeded runner: one generator per criterion, failures that replay."""

from autoind import verify
from autoind.cli import main
from autoind.verify import _seeded


def probe(seed=0, cases=10):
    """Fails at case 3 with a tag that depends on the draws so far."""

    def check(rng, i):
        x = rng.randrange(10**6)
        if i == 3:
            return f"drew {x}"

    return _seeded("probe", seed, cases, check)


def test_failure_names_seed_and_case_and_replays():
    first = probe(seed=5)
    assert (first.name, first.passed, first.cases) == ("probe", False, 4)
    assert first.detail.startswith("seed 5, case 3: drew ")
    assert probe(seed=5, cases=4) == first
    assert probe(seed=6).detail != first.detail


def test_fiber_criterion_keeps_its_two_halves():
    for cases, reported in ((0, 2), (1, 2), (7, 6)):
        assert verify.crit5_fibers(seed=3, cases=cases).cases == reported


def test_cli_prints_the_replayable_failure(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "global", ((probe, 10),))
    lines = []
    for argv in (["--seed", "5"], ["--seed", "5", "--cases", "4"]):
        assert main(["verify", "--suite", "global", *argv]) == 1
        lines.append(capsys.readouterr().out.splitlines()[0])
    assert lines[0] == lines[1] == probe(seed=5).line()
    assert lines[0].startswith("FAIL probe [4 cases]  (seed 5, case 3: drew ")


def test_global_compatibility_draws_a_proper_divisor_as_the_orbit(monkeypatch):
    drawn, build = set(), verify.random_global_discrete
    monkeypatch.setattr(verify, "random_global_discrete",
                        lambda rng, d, r, *a, **kw: drawn.add((d, r)) or build(rng, d, r, *a, **kw))
    assert verify.crit10_compat(seed=0, cases=60).passed
    assert (4, 2) in drawn  # r = 2 at d = 4, neither 1 nor d

"""One pass of each benchmark workload at seed 1 keeps its verdicts, its
beta, eta and head step counts and, for `head`, the bytes it prints, and
stays under a bound on the nodes it builds.

`bench/workloads.py` builds the benchmark's inputs and holds their known
answers.  It is loaded here from its file as it is and run through numlam's
exported names, without the benchmark's timing or tracing.  The counts are
those of the records in `bench/baseline/`: a speed-up must keep them.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import numlam

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module of a class up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# The names the workloads call, as the benchmark's untraced passes see them.
API = SimpleNamespace(
    **{
        name: getattr(numlam, name)
        for name in (
            "parse_term", "pretty", "head_reduce", "substitute", "alpha_eq",
            "check_successor", "check_predecessor", "check_zero_test",
            "check_definable", "spz_from_k",
        )
    },
    numeral_system=lambda system: system,
)

# workload: (verdicts, beta steps, eta steps, head steps) of one pass at seed 1
EXPECTED = {
    "contracts": (850, 21_290, 102, 0),
    "kgrid": (181, 55_135, 44, 0),
    "head": (2_503, 0, 0, 17_458),
}

# sha256 of the texts one head pass at seed 1 prints, joined with newlines.
HEAD_TEXTS_SHA256 = "5dc18e19ed4c66a5a1d1292b65d2e8e1848ce96807cc9dff6a4528f12ceb5d81"


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_pass_keeps_verdicts_and_step_counts(name, monkeypatch):
    """The eta steps are counted where the checks normalize, as the
    benchmark's traced runs count them.  Within a contracts pass, a c[church]
    numeral's eta form, remembered when one side of a case is normalized,
    serves the other side and the next numeral; the pass runs twice on one
    workload, so that the marks the first pass leaves on the terms both
    share change no count either."""
    verdicts, beta_steps, eta_steps, head_steps = EXPECTED[name]
    normalize = numlam.report.beta_eta_normalize
    eta = []

    def counted(t, fuel):
        out = normalize(t, fuel)
        eta.append(getattr(out, "eta_steps", 0))
        return out

    monkeypatch.setattr(numlam.report, "beta_eta_normalize", counted)
    workload = workloads.WORKLOADS[name](numlam, 1)
    for _ in range(2 if name == "contracts" else 1):
        eta.clear()
        outcomes = workload.run_pass(API)
        assert [o.label for o in outcomes if o.ok is not True] == []
        assert workload.expected_cases == verdicts
        assert sum(o.cases for o in outcomes) == verdicts
        assert sum(o.beta_steps for o in outcomes) == beta_steps
        assert sum(eta) == eta_steps
        assert sum(o.head_steps for o in outcomes) == head_steps
    texts = [o.text for o in outcomes if o.text is not None]
    for o in outcomes:
        if o.text is not None:
            assert numlam.alpha_eq(numlam.parse_term(o.text), o.term)
    if name == "head":
        assert len(texts) == verdicts
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == HEAD_TEXTS_SHA256


# workload: (App, Lam) bounds on the nodes one fresh seed-1 pass builds, its
# inputs included, about 5% above the counts of (29,219, 15,870),
# (40,364, 3,188) and (92,676, 90,543).
NODE_BOUNDS = {
    "contracts": (30_700, 16_700),
    "kgrid": (42_400, 3_350),
    "head": (97_300, 95_100),
}


@pytest.mark.parametrize("name", sorted(NODE_BOUNDS))
def test_workload_pass_builds_few_nodes(name, monkeypatch):
    """A guard on the work of one seed-1 pass: a contraction builds none of
    its contractum's left spine, a run of closed arguments meeting a chain
    of abstractions is substituted in one walk, and the substitution walk
    reuses every node whose children come back unchanged."""
    built = {numlam.App: 0, numlam.Lam: 0}
    for cls in built:
        def counting(self, *args, _init=cls.__init__, _cls=cls):
            built[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    outcomes = workloads.WORKLOADS[name](numlam, 1).run_pass(API)
    assert [o.label for o in outcomes if o.ok is not True] == []
    apps, lams = NODE_BOUNDS[name]
    assert built[numlam.App] <= apps and built[numlam.Lam] <= lams, built

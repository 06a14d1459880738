"""The marks that the reductions leave in the free-variable slot of a closed
abstraction have one home: `terms` defines them and `reduction` sets and
reads them.  No other module of src/numlam names them, so none can set a
mark that no pass has proved."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numlam"
MARK_NAMES = ("_set_lam_fv", "_BETA_ETA_NORMAL", "_EtaForm")


def test_only_terms_and_reduction_name_the_marks():
    naming = {
        path.name: [name for name in MARK_NAMES if name in path.read_text(encoding="utf-8")]
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in ("terms.py", "reduction.py")
    }
    assert naming and not any(naming.values()), naming

"""Every lenrepro warning points at the line that called into the library:
the nearest frame outside ``lenrepro``, where the command line counts as a
caller.  One helper, ``model._warn``, issues them all."""
import ast
import inspect
import io
import warnings
from pathlib import Path

import pytest

import lenrepro
from lenrepro import model
from lenrepro.analysis import ingest, summarize_cohort, summarize_file
from lenrepro.fitting import (FitConfig, ObservedErrors, _fit_with_goodness, fit_shared_prior,
                              goodness_of_fit)
from lenrepro.model import (DEFAULT_STIMULI, NoiseMode, NoiseModel, closed_form, error_curve,
                            ri_curve, rmse_surface)
from lenrepro.records import Trials, write_trial_csv

# one condition, so the bias/cv objective is not identified; a two-value
# sigma_p grid, so every fit lands on its edge; a wf grid that reaches past
# the usual sweep range
OBSERVED = {"a": ObservedErrors(bias=0.1, cv=0.2, ri=0.3)}
CFG = FitConfig(sigma_p_grid=(1.0, 2.0, 1.0), wf_grid=(0.0, 0.65, 0.005))
# no actual_length_cm column
CSV = "participant_id,condition,trial_index,nominal_length_cm,response_cm\np1,a,0,6.0,6.1\n"


def _session() -> Trials:
    """One session whose 10 cm stimulus group has a single trial."""
    nominal = [6.0, 6.0, 10.0, 14.0, 14.0]
    return Trials(["p1"] * 5, ["a"] * 5, range(5), nominal, nominal,
                  [6.5, 5.9, 10.2, 13.1, 13.6])


def _session_file(path):
    """A trial CSV of :func:`_session` next to ``path``."""
    session = path.with_name("session.csv")
    write_trial_csv(_session(), session)
    return session


def _fit():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_shared_prior(OBSERVED, DEFAULT_STIMULI, CFG)


# each call on one line, the line its warnings must point at, and the
# number of warnings it issues
ENTRY_POINTS = {
    "NoiseModel.weber": (lambda path: NoiseModel.weber(0.7), 1),
    "NoiseModel": (lambda path: NoiseModel(NoiseMode.WEBER, 0.7), 1),
    "closed_form": (lambda path: closed_form([1.5], [0.2, 0.65], DEFAULT_STIMULI), 1),
    "error_curve": (lambda path: error_curve(1.5, [0.2, 0.65]), 1),
    "ri_curve": (lambda path: ri_curve(1.5, [0.2, 0.65]), 1),
    "rmse_surface": (lambda path: rmse_surface([0.2, 0.65], [0.0, 0.3]), 1),
    "fit_shared_prior": (lambda path: fit_shared_prior(OBSERVED, DEFAULT_STIMULI, CFG), 3),
    "goodness_of_fit": (lambda path: goodness_of_fit(_fit(), OBSERVED, DEFAULT_STIMULI, CFG), 2),
    "_fit_with_goodness": (lambda path: _fit_with_goodness(OBSERVED, DEFAULT_STIMULI, CFG), 4),
    "ingest(str)": (lambda path: ingest(str(path)), 1),
    "ingest(Path)": (lambda path: ingest(path), 1),
    "ingest(stream)": (lambda path: ingest(io.StringIO(path.read_text())), 1),
    "summarize_cohort": (lambda path: summarize_cohort(_session()), 1),
    "summarize_file": (lambda path: summarize_file(_session_file(path)), 1),
}


@pytest.mark.parametrize("call, count", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_warning_points_at_the_callers_line(tmp_path, call, count):
    path = tmp_path / "trials.csv"
    path.write_text(CSV)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(path)
    assert [(w.category, w.filename, w.lineno) for w in caught] == (
        [(UserWarning, __file__, call.__code__.co_firstlineno)] * count)


def test_only_the_helper_warns():
    """No module but the helper calls ``warnings.warn`` or passes a
    ``stacklevel``."""
    lines, first = inspect.getsourcelines(model._warn)
    sites = []
    for path in sorted(Path(lenrepro.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("warn", "warn_explicit") or any(
                    kw.arg == "stacklevel" for kw in node.keywords):
                sites.append((path.name, first <= node.lineno < first + len(lines)))
    assert sites == [("model.py", True)]

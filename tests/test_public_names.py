"""Each module's public names, pinned: a name added to or removed from a
module's API is a decision that this list records."""
import ast
import importlib
from pathlib import Path

import pytest

import lenrepro

PACKAGE = Path(lenrepro.__file__).parent

# the names each module binds at its top level, other than by import, that
# do not start with an underscore
PUBLIC = {
    "analysis": ["CohortSummary", "DegenerateDataError", "GroupStats", "IngestionError",
                 "PairedContrast", "SessionTable", "ingest", "render_report",
                 "screen_outliers", "summarize_cohort", "summarize_file",
                 "write_condition_csv", "write_participant_csv"],
    "cli": ["ENV_PREFIX", "GRID", "KEYS", "OBSERVER_KEYS", "OPTIONS", "Option", "SCHEDULE",
            "build_parser", "cmd_analyze", "cmd_curves", "cmd_fit", "cmd_schedule",
            "cmd_simulate", "main", "number_list"],
    "fitting": ["FitConfig", "FitResult", "GoodnessReport", "Objective", "ObservedErrors",
                "fit_shared_prior", "goodness_of_fit", "render_fit_report"],
    "model": ["BracketError", "DEFAULT_STIMULI", "DegenerateFusionError", "GaussianBelief",
              "MotorCombination", "MotorNoiseSpec", "NO_MOTOR_NOISE", "NoiseMode",
              "NoiseModel", "SIGMA_P_BRACKET", "StimulusSet", "WEBER_SWEEP_MAX",
              "closed_form", "error_curve", "fuse_gaussians", "fusion_weight",
              "grid_values", "normalized_errors", "regression_index", "ri_curve",
              "rmse_surface", "sigma_l_at", "sigma_p_from_ri", "wf_from_ri"],
    "records": ["TRIAL_CSV_HEADER", "TrialRow", "Trials", "write_csv", "write_trial_csv"],
    "simulate": ["ConfigError", "DemonstratorNoise", "ObserverParams", "ScheduleConfig",
                 "Trial", "cohort_blocks", "generate_schedule", "simulate_cohort",
                 "simulate_observer"],
    "stats": ["DegenerateTestError", "cohens_d_one_sample", "cohens_d_paired",
              "one_sample_t", "paired_t"],
    "trialtext": ["rows_text"],
}


def _imported(path: Path) -> set:
    """The names that the module's top-level import statements bind."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "__init__"))
def test_public_names_are_pinned(name):
    module = importlib.import_module(f"lenrepro.{name}")
    imported = _imported(PACKAGE / f"{name}.py")
    assert sorted(n for n in vars(module)
                  if not n.startswith("_") and n not in imported) == PUBLIC.get(name)


def test_package_exports_are_pinned():
    assert lenrepro.__all__ == [
        "DEFAULT_STIMULI", "DemonstratorNoise", "GaussianBelief", "MotorCombination",
        "MotorNoiseSpec", "NoiseModel", "ObserverParams", "ScheduleConfig", "StimulusSet",
        "Trials", "fuse_gaussians"]

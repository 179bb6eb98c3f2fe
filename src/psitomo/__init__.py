"""Pure-state tomography of slit-encoded qudits by phase-shifting interferometry.

The package simulates the two-arm interferometer (either at the projector
probability level or as rendered camera frames), inverts the three stepped
measurements per slit back into the complex state, certifies that the input
was pure from the measured visibilities, and batches the whole loop for
fidelity statistics.
"""

from . import errors
from .harness import (
    CalibrationResult,
    ExperimentSpec,
    StateSource,
    SummaryStats,
    TrialResult,
    calibrate_noise,
    chunk_seed,
    generate_states,
    run_batch,
    run_trial,
    trial_seed,
    write_summary_json,
    write_trials_csv,
)
from .imaging import (
    DISPLAY_PHASE_SD,
    Interferogram,
    NoiseModel,
    OpticalConfig,
    render_blocked_frame,
    render_frames,
    roi_means,
)
from .pgmio import load_frames, read_pgm, save_frames, write_pgm
from .projectors import (
    STEP_PHASES,
    MeasurementPlan,
    ProjectorOutcomes,
    ProjectorSpec,
    exact_outcomes,
    exact_outcomes_mixed,
    interference_probs,
    measurement_plan,
    projector_state,
    sample_counts,
)
from .reconstruct import (
    PurityCheck,
    ReconstructionReport,
    certify_purity,
    choose_reference,
    circular_mean,
    psi_phase,
    psi_visibility,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
)
from .states import (
    DensityMatrix,
    PureState,
    bloch_grid,
    bloch_vector,
    depolarized,
    fidelity,
    fidelity_mixed,
    haar_random,
    normalize,
    purity,
)

__version__ = "0.1.0"

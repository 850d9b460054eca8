"""Sliding-correlator wideband channel sounder simulator.

Synthesizes maximal-length PN probing waveforms, propagates them through
configurable multipath scenarios with steerable horn antennas, recovers
time-dilated channel impulse responses by sliding correlation, and runs the
measurement-analysis pipeline (power delay profiles, azimuth sweeps,
omnidirectional synthesis, close-in path-loss fits, local-area statistics).
"""

__version__ = "0.1.0"

import os

# Set before the first numpy import below.  numpy's bundled OpenBLAS starts
# one worker thread per CPU as it loads, and each worker busy-waits for about
# 120 ms before it sleeps: about half of a desk command's CPU time.  Nothing
# here gives that pool work (the matrix products are 2-vector dots, integer
# products and per-bin (1 x g)(g x R) products, far below OpenBLAS's
# threading thresholds), and setting the thread count after numpy has loaded
# does not stop the spin.  setdefault keeps a caller's own value.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (
    AntennaPattern,
    MultipathChannel,
    PathComponent,
    Reflector,
    RxLocation,
    ScenarioConfig,
    Wall,
    apply_channel,
    fspl,
    fresnel_parameter,
    knife_edge_loss_db,
    pattern_gain,
    synthesize_channel,
)
from .correlator import (
    COMPRESSED_SAMPLES_PER_CHIP,
    CorrelatorConfig,
    DilatedCir,
    SounderPreset,
    correlate_fast,
    correlate_literal,
    desk_preset,
    dilated_period,
    full_preset,
    get_preset,
    processing_gain,
    rx_chip_rate_from_divider,
    slide_factor,
)
from .errors import AnalysisError, ConfigError, SimulationError, SounderError
from .pdp import (
    PowerDelayProfile,
    average_pdps,
    pdp_from_iq,
    threshold_pdp,
)
from .pn import (
    ChipSequence,
    LfsrSpec,
    generate_leapforward,
    generate_msequence,
    periodic_autocorrelation,
)
from .scenario_io import (
    CampaignSpec,
    ResultBundle,
    emit_plot_data,
    load_scenario,
    run_campaign,
)
from .sweep import (
    ABSENT_POWER_DBM,
    CiFit,
    LinkBudget,
    angular_spectrum,
    averaging_gain_db,
    ci_fit,
    eirp,
    fading_rate,
    local_power_std,
    max_measurable_path_loss,
    noise_floor_dbm,
    omni_power,
    path_loss,
    run_sweep,
)
from .waveform import SampledWaveform, read_waveform, upsample_chips, write_waveform

"""fdiab: desk-scale full-duplex integrated-access-and-backhaul simulator.

Link level: the three-domain self-interference reduction chain (propagation
isolation, two-tap analog cancellation, fifth-order parallel-Hammerstein
digital cancellation) around an OFDM waveform with PA and ADC impairments.
System level: downlink throughput of fibered, ideal-FD, FD-with-full-SIC,
FD-propagation-only and half-duplex configurations over a UE grid.
"""

__version__ = "0.1.0"

from .geometry import (
    AntennaPattern,
    ReflectorConfig,
    SiGeometry,
    antenna_gain_dbi,
    direct_si_taps,
    fspl_db,
    rx_dbm,
    si_channel,
    total_gain_db,
)
from .ofdm import OfdmConfig, demodulate, estimate_channel_ls, modulate, symbol_spectra
from .rf import (
    AdcModel,
    NoiseModel,
    PaModel,
    adc_quantize,
    fits_gray_zone,
    pa_apply,
)
from .sic import (
    HammersteinRegressors,
    LinkChainParams,
    ReductionReport,
    TwoTapConfig,
    apply_analog_canceller,
    apply_digital_sic,
    fit_hammerstein,
    run_link_chain,
    run_link_chains,
    tune_two_tap,
)
from .system import (
    ALL_MODES,
    Donor,
    IabNode,
    Mode,
    Scenario,
    UeGrid,
    capacity_bps,
    cdf,
    codebook_angles,
    default_scenario,
    dli_power_dbm,
    noise_plus_dbm,
    run_drop,
    ue_throughput,
)

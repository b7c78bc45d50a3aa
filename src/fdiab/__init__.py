"""fdiab: desk-scale full-duplex integrated-access-and-backhaul simulator.

Link level: the three-domain self-interference reduction chain (propagation
isolation, two-tap analog cancellation, fifth-order parallel-Hammerstein
digital cancellation) around an OFDM waveform with PA and ADC impairments.
System level: downlink throughput of fibered, ideal-FD, FD-with-full-SIC,
FD-propagation-only and half-duplex configurations over a UE grid.

The public names below are imported from their submodule on first access
(PEP 562), so importing fdiab, or a command of fdiab.cli, loads only the
layers it runs. Nothing is cached here: a name reads its submodule's
attribute on every access, so a rebinding of that attribute shows through.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": (
        "AntennaPattern", "ReflectorConfig", "SiGeometry", "antenna_gain_dbi", "direct_si_taps",
        "fspl_db", "rx_dbm", "si_channel", "total_gain_db",
    ),
    "ofdm": ("OfdmConfig", "demodulate", "estimate_channel_ls", "modulate", "symbol_spectra"),
    "rf": ("AdcModel", "NoiseModel", "PaModel", "adc_quantize", "fits_gray_zone", "pa_apply"),
    "sic": (
        "HammersteinRegressors", "LinkChainParams", "ReductionReport", "TwoTapConfig",
        "apply_analog_canceller", "apply_digital_sic", "fit_hammerstein", "run_link_chain",
        "run_link_chains", "tune_two_tap",
    ),
    "system": (
        "ALL_MODES", "Donor", "IabNode", "Mode", "Scenario", "UeGrid", "capacity_bps", "cdf",
        "codebook_angles", "default_scenario", "dli_power_dbm", "noise_plus_dbm", "run_drop",
        "ue_throughput",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # AttributeError for any other name: `from fdiab import cli` imports fdiab.cli.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})

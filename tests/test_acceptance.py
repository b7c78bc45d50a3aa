"""Acceptance suite: one test per criterion, each printing a PASS line.

Absolute-value reproduction is out of reach at desk scale (the reference
environment is not available), so these criteria pin budget constants,
physics bounds, ordering reproduction and determinism, at the stated
tolerances.
"""

import collections
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from fdiab.cli import chain_for_node, main
from fdiab.ofdm import (
    OfdmConfig, apply_frequency_response, build_frame, demodulate, estimate_channel_ls, symbol_rows,
    symbol_spectra,
)
from fdiab.rf import (
    AdcModel,
    NoiseModel,
    PaModel,
    adc_quantize,
    fits_gray_zone,
    pa_apply,
    thermal_noise,
)
from fdiab.sic import (
    HammersteinRegressors,
    apply_digital_sic,
    fit_hammerstein,
    run_link_chains,
    tune_two_tap,
)
from fdiab.geometry import SiGeometry, direct_si_taps, si_channel, AntennaPattern, ReflectorConfig
from fdiab.prototype import PAPER_MEAN_SUPPRESSION_DB, compare_prototype
from fdiab.scenario import save_scenario
from fdiab.system import Mode, UeGrid, capacity_bps, default_scenario, run_drop, ue_throughput
from fdiab.util import dbm_to_watt, mean_power_dbm, substream

CFG = OfdmConfig()


def ok(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def scenario_at(separation):
    base = default_scenario()
    return dataclasses.replace(
        base,
        iab_nodes=tuple(
            dataclasses.replace(n, antenna_separation_m=separation) for n in base.iab_nodes
        ),
    )


def test_criterion_1_budget_arithmetic():
    floor = NoiseModel(120e6, 3.0).floor_dbm
    assert floor == pytest.approx(-90.21, abs=0.01)
    required = 46.0 - (-90.0)  # Tx power less the Rx floor it must reach
    assert required == 136.0 and required > 120.0
    ok(1, f"noise floor {floor:.2f} dBm; required reduction {required:.0f} dB > 120 dB")


def test_criterion_2_adc_physics():
    adc = AdcModel(bits=14, agc_backoff_db=0.0)
    n = 1 << 16
    tone = np.exp(2j * np.pi * 12345 * np.arange(n) / n)
    q, _ = adc_quantize(tone, adc)
    sqnr = 10 * np.log10(np.mean(np.abs(tone) ** 2) / np.mean(np.abs(q - tone) ** 2))
    assert sqnr == pytest.approx(86.04, abs=0.3)

    # Desired-signal SNR after SI cancellation is bounded by the quantization
    # floor the dominant SI leaves behind, even for a genie canceller.
    worst_margin = np.inf
    for sir_db in np.linspace(20.0, 77.0, 20):
        si = np.exp(2j * np.pi * 0.2371 * np.arange(n))
        desired = 10 ** (-sir_db / 20) * np.exp(2j * np.pi * 0.1013 * np.arange(n))
        rx, _ = adc_quantize(si + desired, adc)
        recovered = rx - si
        snr = 10 * np.log10(
            np.mean(np.abs(desired) ** 2) / np.mean(np.abs(recovered - desired) ** 2)
        )
        bound = 86.04 - sir_db + 1.0
        worst_margin = min(worst_margin, bound - snr)
        assert snr <= bound
    ok(2, f"full-scale SQNR {sqnr:.2f} dB; SI-limited SNR bound held with >= "
          f"{worst_margin:.2f} dB margin over 20 points")


def test_criterion_3_two_tap_canceller():
    delays = (3e-9, 4e-9)
    freqs = CFG.subcarrier_freqs_hz()
    basis = np.exp(-2j * np.pi * np.outer(freqs, delays))
    gains = np.array([0.8 * np.exp(0.4j), 0.5 * np.exp(-1.1j)])
    h = basis @ gains
    tt = tune_two_tap(h, delays, CFG)
    rel = np.mean(np.abs(h - tt.freq_response(freqs)) ** 2) / np.mean(np.abs(h) ** 2)
    assert 10 * np.log10(rel) <= -120.0

    rng = substream(99, "twotap")
    depths = []
    for _ in range(1000):
        g = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
        eps = 10 ** (-20 / 20) / np.sqrt(2) * (
            rng.standard_normal(2) + 1j * rng.standard_normal(2)
        )
        tuned = tune_two_tap(basis @ (g * (1 + eps)), delays, CFG)
        before = np.sum(np.abs(basis @ g) ** 2)
        after = np.sum(np.abs(basis @ g - tuned.freq_response(freqs)) ** 2)
        depths.append(10 * np.log10(before / after))
    mean_depth = float(np.mean(depths))
    assert mean_depth == pytest.approx(20.0, abs=3.0)
    ok(3, f"matched recovery at numerical floor; MC depth {mean_depth:.2f} dB at 20 dB est. SNR")


def brute_force_residual_power(tx, rx, reg, coeffs, idx):
    """Independent Hammerstein predictor: explicit per-branch, per-tap sums of
    coeffs, fit against the regressors reg."""
    pred = np.zeros(idx.size, dtype=complex)
    env = np.abs(tx)
    for bi, p in enumerate(reg.orders):
        psi = tx * env ** (p - 1)
        for m in range(reg.memory_len):
            pred += coeffs[bi, m] * psi[idx - (m - reg.alignment)]
    return float(np.mean(np.abs(rx[idx] - pred) ** 2))


def test_criterion_4_hammerstein_sic():
    pa = PaModel()
    noise_model = NoiseModel()
    rng_frame = substream(2024, "c4-frame")
    amp = np.sqrt(dbm_to_watt(pa.input_p1db_dbm - 8.0))  # 8 dB below P1dB
    tx = build_frame(CFG, 18, rng_frame) * amp
    pa_out = pa_apply(tx, pa)

    geom = SiGeometry(antenna_separation_m=1.0)
    chan_rng = substream(substream(2024, "c4-chan").integers(2**63), "si-reflections")
    pattern = AntennaPattern()
    (direct,) = direct_si_taps(geom, pattern, pattern)
    delays, gains = si_channel(direct, ReflectorConfig(), chan_rng)
    h_bins = np.exp(-2j * np.pi * np.outer(CFG.bin_freqs_hz(), delays)) @ gains
    rx = apply_frequency_response(symbol_spectra(pa_out, CFG), h_bins, CFG) + thermal_noise(
        tx.size, noise_model, substream(2024, "c4-noise")
    )
    # The samples a fit at alignment 8 takes: each useful part less its last 8.
    idx = symbol_rows(np.arange(tx.size), CFG)[:, CFG.cp_len : CFG.symbol_len - 8].ravel()
    floor = noise_model.floor_dbm
    si_dbm = mean_power_dbm(rx[idx])
    assert fits_gray_zone(si_dbm, floor)

    rx_adc, _ = adc_quantize(rx, AdcModel())
    reg5 = HammersteinRegressors(tx, (1, 3, 5), 20, 8, CFG, ridge=1e-8)
    reg1 = HammersteinRegressors(tx, (1,), 20, 8, CFG, ridge=1e-8)
    fifth, linear = fit_hammerstein(reg5, rx_adc), fit_hammerstein(reg1, rx_adc)
    res5_dbm = mean_power_dbm(apply_digital_sic(reg5, rx_adc, fifth))
    res1_dbm = mean_power_dbm(apply_digital_sic(reg1, rx_adc, linear))
    gap = res1_dbm - res5_dbm
    assert gap >= 10.0
    assert res5_dbm - floor <= 3.0

    oracle = brute_force_residual_power(tx, rx_adc, reg5, fifth, idx)
    assert 10 * np.log10(oracle) + 30 == pytest.approx(res5_dbm, abs=0.1)
    oracle_lin = brute_force_residual_power(tx, rx_adc, reg1, linear, idx)
    assert 10 * np.log10(oracle_lin) + 30 == pytest.approx(res1_dbm, abs=0.1)
    ok(4, f"fifth-order beats linear-only by {gap:.1f} dB; residual floor+"
          f"{res5_dbm - floor:.2f} dB; oracle agrees to 0.1 dB")


def test_criterion_5_fig4_structure():
    n_drops = 200
    separations = (2.0, 1.0, 0.1)
    reports = {d: [] for d in separations}
    chains = [chain_for_node(scenario_at(d), 0) for d in separations]
    for seed in range(n_drops):  # the three separations of a seed share its frame
        links = [(params, si_taps(seed)) for params, si_taps in chains]
        for d, report in zip(separations, run_link_chains(links, seed)):
            reports[d].append(report)

    # (a) propagation-domain suppression strictly increases with separation
    for seed in range(n_drops):
        sups = [reports[d][seed].per_domain_db[0] for d in separations]
        assert sups[0] > sups[1] > sups[2]

    # (b) propagation alone satisfies the gray-zone rule for d in {1, 2} m
    for d in (2.0, 1.0):
        frac = np.mean([
            fits_gray_zone(r.after_propagation_dbm, r.noise_floor_dbm)
            for r in reports[d]
        ])
        assert frac >= 0.95

    # (c) full chain lands within 6 dB of the noise floor for all separations
    for d in separations:
        frac = np.mean([
            abs(r.after_digital_dbm - r.noise_floor_dbm) <= 6.0 for r in reports[d]
        ])
        assert frac >= 0.95
    worst = max(
        abs(r.after_digital_dbm - r.noise_floor_dbm)
        for d in separations
        for r in reports[d]
    )
    ok(5, f"suppression ordering holds over {n_drops} drops; worst final "
          f"residual {worst:.2f} dB from the floor")


def test_criterion_6_fig5_orderings():
    seeds = range(20)
    pooled = {1.0: collections.defaultdict(list), 0.1: collections.defaultdict(list)}
    for sep in (1.0, 0.1):
        sc = scenario_at(sep)
        for seed in seeds:
            d = dict(zip((m.value for m in Mode), run_drop(sc, seed)["throughput_bps"]))
            for mode, thr in d.items():
                pooled[sep][mode].extend(thr)
            assert np.all(d["fibered"] >= d["ideal_fd"] - 1e-9)
            assert np.all(d["ideal_fd"] >= d["fd_full"] - 1e-9)
            assert np.all(d["fd_full"] >= d["fd_prop_only"] - 1e-9)

    hd_median = np.median(pooled[0.1]["hd"])
    prop_median = np.median(pooled[0.1]["fd_prop_only"])
    assert hd_median > prop_median

    # equal link capacities, 10% guard: ideal FD gains 1/(0.9*0.5) over HD
    sc = default_scenario()
    c = capacity_bps(21.0, sc.bandwidth_hz)
    fd = ue_throughput(Mode.IDEAL_FD, True, c, c, sc.guard_overhead)
    hd = ue_throughput(Mode.HD, True, c, c, sc.guard_overhead)
    ratio = fd / hd
    assert ratio == pytest.approx(1.0 / (0.9 * 0.5), rel=0.01)
    ok(6, f"pointwise orderings over {20 * 441 * 2} UE drops; at d=0.1 m HD median "
          f"{hd_median/1e6:.0f} Mbps > prop-only {prop_median/1e6:.0f} Mbps; "
          f"ideal/HD ratio {ratio:.4f}")


def test_criterion_7_prototype_reference():
    rows, summary = compare_prototype(seed=0)
    assert rows["separation_m"].size == 108
    assert summary["separation_m"].tolist() == [0.1, 1.0, 2.0]
    measured = [PAPER_MEAN_SUPPRESSION_DB[sep] for sep in summary["separation_m"]]
    assert summary["measured_mean_db"].tolist() == measured == [82.18, 97.26, 100.125]
    sims = summary["simulated_mean_db"]
    assert sims[0] < sims[1] < sims[2]
    ok(7, "measured means 100.125/97.26/82.18 dB; simulated means monotone "
          f"({sims[0]:.1f} < {sims[1]:.1f} < {sims[2]:.1f} dB)")


def test_criterion_8_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    save_scenario(
        dataclasses.replace(default_scenario(), ue_grid=UeGrid(nx=5, ny=5)), scenario_path
    )

    def run(args):
        res = subprocess.run(
            [sys.executable, "-m", "fdiab.cli", *args], capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        return res

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    # identical seeds give byte-identical CSVs for every command
    for cmd, outputs in (
        (["link-sim"], ["reduction.csv"]),
        (["system-sim"], ["throughput.csv", "cdf.csv"]),
        (["compare-prototype"], ["compare_prototype.csv", "compare_summary.csv"]),
        (["sweep", "--grid", "iab_nodes.*.antenna_separation_m=0.1,1,2"], ["sweep.csv"]),
    ):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd[0]}-{tag}"
            args = cmd + ["--out", str(out)]
            if cmd[0] != "compare-prototype":
                args += ["--scenario", str(scenario_path), "--seed", "9"]
            run(args)
            outs.append(out)
        for name in outputs:
            assert read(outs[0] / name) == read(outs[1] / name), f"{cmd[0]}/{name}"
        side = []
        for out in outs:
            with open(out / "run.json") as fh:
                data = json.load(fh)
            data.pop("timestamp")
            side.append(data)
        assert side[0] == side[1]
    ok(8, "byte-identical reruns for all commands")

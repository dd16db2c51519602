"""Tour of the signal-level building blocks.

Generates one subject's worth of synthetic ECG and EDA, runs the default
denoising chains, detects R peaks, computes HRV, and decomposes the EDA
into tonic/phasic components with SCR event detection.  Every number
printed is checked against the known ground truth of the generator.

Run with:  python3 demos/01_signal_tour.py
"""

import numpy as np

from affectpipe import (
    EcgSpec,
    EdaSpec,
    RRSeries,
    decompose_eda,
    default_chain,
    detect_r_peaks,
    hrv_freq_features,
    hrv_time_features,
    scr_events,
    synth_ecg,
    synth_eda,
)


def main():
    duration = 120.0

    # --- ECG -> R peaks -> HRV -------------------------------------------
    spec = EcgSpec(hr_bpm=72.0, hrv_rmssd_target_s=0.045, noise_snr_db=15.0)
    ecg, truth = synth_ecg(spec, duration, seed=7)
    print(f"ECG: {duration:.0f} s at {ecg.sample_rate_hz:.0f} Hz, "
          f"{len(truth.beat_times_s)} injected beats "
          f"(HR {spec.hr_bpm:.0f} BPM, RMSSD target {spec.hrv_rmssd_target_s*1000:.0f} ms, "
          f"SNR {spec.noise_snr_db:.0f} dB)")

    clean = default_chain("ECG", ecg.sample_rate_hz).apply(ecg)
    peaks = detect_r_peaks(clean)
    print(f"  detected {peaks.size} R peaks "
          f"({abs(peaks.size - len(truth.beat_times_s))} off from truth)")

    rr = RRSeries(clean.timestamps[peaks])
    t = hrv_time_features(rr)
    f = hrv_freq_features(rr)
    print(f"  HRV time:  hr_mean={t['hr_mean_bpm']:.1f} BPM  "
          f"rmssd={t['rmssd_s']*1000:.1f} ms  sdnn={t['sdnn_s']*1000:.1f} ms")
    print(f"  HRV freq:  lf={f['lf_power']:.2e}  hf={f['hf_power']:.2e}  "
          f"lf/hf={f['lf_hf_ratio']:.2f}")

    # --- EDA -> tonic/phasic -> SCR events -------------------------------
    scr_times = (20.0, 45.0, 70.0, 95.0)
    eda_spec = EdaSpec(scl_baseline_us=2.5,
                       scr_times_s=scr_times,
                       scr_amplitudes_us=(0.6, 0.4, 0.8, 0.5))
    eda, eda_truth = synth_eda(eda_spec, duration, seed=11)
    print(f"\nEDA: {duration:.0f} s at {eda.sample_rate_hz:.0f} Hz, "
          f"{len(scr_times)} injected SCRs at {scr_times} s")

    eda = default_chain("EDA", eda.sample_rate_hz).apply(eda)
    parts = decompose_eda(eda)
    recon = np.asarray(parts.tonic.values) + np.asarray(parts.phasic.values)
    err = np.max(np.abs(recon - np.asarray(eda.values)))
    print(f"  tonic + phasic reconstructs the input to within {err:.1e} uS")
    print(f"  tonic level ~ {np.mean(parts.tonic.values):.2f} uS "
          f"(baseline was {eda_spec.scl_baseline_us} uS)")

    ev = scr_events(parts.phasic, min_amplitude_us=0.1)
    print(f"  SCR events: count={ev['scr_count']:.0f}  "
          f"rate={ev['scr_rate_per_min']:.2f}/min  "
          f"mean amplitude={ev['scr_mean_amplitude_us']:.2f} uS")


if __name__ == "__main__":
    main()

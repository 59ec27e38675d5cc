"""KPI time-series monitoring: cyclical indicators and anomaly detection.

Demonstrates the "normal indicator" side of machine log data (Sec. II-A1):
cyclical KPI series generation, fault-window injection, rolling z-score
detection, and an ASCII view of the series.

    python examples/kpi_monitoring.py
"""

import numpy as np

from repro.analysis import ascii_histogram, ascii_scatter
from repro.world import (
    KpiSeriesGenerator,
    TelecomWorld,
    detect_anomalies,
    rolling_zscore,
)


def main() -> None:
    world = TelecomWorld.generate(seed=8)
    kpi = world.ontology.kpis[0]
    print(f"KPI: {kpi.name}")
    print(f"  normal range: [{kpi.normal_low:.1f}, {kpi.normal_high:.1f}] "
          f"{kpi.unit}; anomaly direction: {kpi.anomaly_direction}")

    generator = KpiSeriesGenerator(np.random.default_rng(0), noise_scale=0.02)
    fault_window = (100_000.0, 112_000.0)
    series = generator.generate(kpi, start_time=0.0, duration=2 * 86_400.0,
                                interval=600.0, fault_windows=[fault_window])
    print(f"\ngenerated {len(series)} samples over 2 days; "
          f"{int(series.anomaly_mask.sum())} inside the injected fault window")

    normalised = (series.values - series.values.min()) / \
        (series.values.max() - series.values.min())
    print(ascii_scatter(series.timestamps / 3600.0, series.values,
                        values=normalised, width=70, height=14,
                        title="\nKPI series (x = hours; fault injected around "
                              f"hour {fault_window[0] / 3600:.0f})"))

    scores = rolling_zscore(series.values, window=12)
    print(ascii_histogram(scores, bins=8,
                          title="\nrolling z-score distribution"))

    predictions = detect_anomalies(series, window=12, threshold=4.0)
    flagged_hours = series.timestamps[predictions] / 3600.0
    print(f"\ndetector flagged {int(predictions.sum())} samples at hours: "
          + ", ".join(f"{h:.1f}" for h in flagged_hours[:10]))
    onset = series.timestamps[series.anomaly_mask][0] / 3600.0
    print(f"ground-truth fault onset: hour {onset:.1f}")


if __name__ == "__main__":
    main()

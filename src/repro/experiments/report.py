"""EXPERIMENTS.md generation from benchmark outputs.

``pytest benchmarks/ --benchmark-only`` drops one rendered paper-vs-measured
table per experiment into ``benchmarks/results/``; this module stitches them
(plus the shape commentary) into the repository's EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

#: Experiment order and per-experiment commentary used in the report.
SECTIONS: tuple[tuple[str, str, str], ...] = (
    ("table2_strategies.txt", "Table II — training strategies",
     "Schedule reproduction: STL masks only, PMTL sums all objectives each "
     "step, IMTL runs the three-stage ERNIE2-style schedule. The paper's 60k "
     "steps map to the pipeline's scaled budget."),
    ("table3_rca_stats.txt", "Table III — RCA data statistics",
     "Synthetic states preserve the structural shape: O(100) graphs, an "
     "event-feature inventory much larger than the node count, dense NE "
     "connectivity."),
    ("table4_rca.txt", "Table IV — root-cause analysis",
     "Reproduced shape: the knowledge-enhanced variants (PMTL/IMTL) hold the "
     "best mean rank and Hits@{3,5}, as in the paper. At our scale the "
     "Random baseline is stronger than in the paper on Hits@1 because tiny "
     "states make event-identity memorisation viable; the paper's "
     "low-resource gap concentrates in the KE-trained rows."),
    ("table5_eap_stats.txt", "Table V — EAP data statistics",
     "Balanced positive/negative trigger pairs extracted from simulated "
     "MDAF packages, matching the paper's construction."),
    ("table6_eap.txt", "Table VI — event association prediction",
     "Reproduced shape: KTeleBERT variants beat the word-embedding and "
     "generic-PLM baselines on F1, and removing ANEnc hurts. Absolute "
     "accuracy is lower than the paper's because our negative pairs are "
     "co-occurring events (harder than random pairs)."),
    ("table7_fct_stats.txt", "Table VII — FCT data statistics",
     "A probabilistic alarm graph with held-out masked hops; smaller than "
     "the paper's 243-node graph because the synthetic catalog has ~50 "
     "alarms (scale map in DESIGN.md §5)."),
    ("table8_fct.txt", "Table VIII — fault chain tracing",
     "Partially reproduced: the KE-trained IMTL variant holds the best "
     "MRR and a clear Hits@10 lead, echoing the paper's top row, but with "
     "only ~11 held-out hops per seed the middle rows sit within noise "
     "(single-seed sweeps show a +7 MRR gap for PMTL over Random at "
     "lr 0.02 that 3-seed averaging does not consistently retain). This is "
     "the task where our 10³-smaller scale bites hardest — the paper has "
     "32 test chains over 243 alarms and a dim-2000, init-dominated "
     "embedding space."),
    ("fig10_numeric.txt", "Fig. 10 — numeric embedding structure",
     "Quantified reproduction: the Spearman correlation between value "
     "distance and embedding distance is higher with `L_nc` than without, "
     "i.e. the contrastive loss orders the numeric embedding space by value "
     "(the paper shows this qualitatively via colored projections; the "
     "accompanying CSVs contain our 2-D PCA projections for plotting)."),
)

_HEADER = """# EXPERIMENTS — paper vs measured

Every table and figure of the evaluation section of *Tele-Knowledge
Pre-training for Fault Analysis* (ICDE 2023), regenerated by
`pytest benchmarks/ --benchmark-only` ({seeds_note}).  Rendered outputs are
also kept under `benchmarks/results/`.

Absolute numbers are not comparable to the paper's (tiny from-scratch models,
synthetic data at ~10^3 smaller scale — see DESIGN.md §5); the reproduction
target is each table's *comparative shape*, which the benchmark assertions
check automatically.

"""


def generate_report(results_dir: str | Path, output_path: str | Path,
                    seeds_note: str = "seeds 0,1,2 averaged for the result "
                                      "tables") -> Path:
    """Assemble EXPERIMENTS.md from the benchmark outputs."""
    results_dir = Path(results_dir)
    output_path = Path(output_path)
    parts: list[str] = [_HEADER.format(seeds_note=seeds_note)]
    missing: list[str] = []
    for filename, title, commentary in SECTIONS:
        path = results_dir / filename
        parts.append(f"## {title}\n")
        parts.append(commentary + "\n")
        if path.exists():
            parts.append("```\n" + path.read_text(encoding="utf-8").strip()
                         + "\n```\n")
            if filename.startswith("fig10"):
                parts.extend(_fig10_projections(results_dir))
        else:
            missing.append(filename)
            parts.append("*(benchmark output missing — run "
                         "`pytest benchmarks/ --benchmark-only`)*\n")

    ablations = sorted(results_dir.glob("ablation_*.txt"))
    if ablations:
        parts.append("## Additional ablations\n")
        parts.append("Design-choice ablations beyond the paper's own "
                     "w/o-ANEnc rows:\n")
        for path in ablations:
            parts.append("```\n" + path.read_text(encoding="utf-8").strip()
                         + "\n```\n")

    parts.append(_OBSERVATIONS)
    output_path.write_text("\n".join(parts), encoding="utf-8")
    return output_path


def _fig10_projections(results_dir: Path) -> list[str]:
    """ASCII-render the saved Fig. 10 projection CSVs (value-shaded)."""
    import numpy as np

    from repro.analysis import ascii_scatter

    parts: list[str] = []
    for csv_path in sorted(results_dir.glob("fig10_*.csv")):
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        if rows.ndim != 2 or rows.shape[1] != 3 or len(rows) < 2:
            continue
        title = csv_path.stem.replace("fig10_", "").replace("_", " ")
        plot = ascii_scatter(rows[:, 1], rows[:, 2], values=rows[:, 0],
                             width=56, height=14,
                             title=f"2-D projection — {title} "
                                   "(shade = value)")
        parts.append("```\n" + plot + "\n```\n")
    return parts


# repro-lint: allow[RL007] prose that discusses the prompt format; no prompt is constructed here
_OBSERVATIONS = """## Observations at reproduction scale

* **Knowledge injection is the headline and it reproduces.**  Across all
  three tasks the KE-trained variants (PMTL/IMTL) hold the best rows, as in
  the paper.  One mechanism is directly visible in our implementation: the
  KE objective trains exactly the `[ENT]`-wrapped input format the
  service-delivery layer uses, so PMTL/IMTL embeddings are aligned with the
  format downstream tasks query — STL never sees that format during
  re-training, which is why it can trail its own `w/o ANEnc` ablation here
  while the paper (with 60k steps and 434k causal sentences) shows a small
  positive gap.
* **The Random baseline is stronger than in the paper.**  With O(100)
  training states and tiny graphs, event-identity memorisation (distinct
  random vectors per event) closes much of the gap that semantics provides
  at production scale; the low-resource ablation shows the pre-training
  advantage widening as the pair set shrinks, which matches the paper's
  low-resource motivation.
* **Confidence weighting (GTransE vs TransE)** does not pay off on our
  synthetic chains: hop confidences are frequency estimates from few
  episodes and mostly uniform, so scaling margins by them mainly shrinks
  the effective margin.  The paper's uncertain KG mixes expert and
  automatic sources with genuinely heterogeneous confidence.
* **SimCSE, the 40% masking rate, the orthogonal regularizer, and
  automatic loss weighting** all pull in the direction the paper chose, at
  our scale too (see the ablation tables above).
"""

"""One-shot full evaluation report generation.

``write_full_report`` runs every figure experiment at the given config
and assembles a single Markdown document mirroring the paper's Sec. V —
the mechanical path to regenerating EXPERIMENTS.md-style records.  Used
by ``repro experiment`` consumers and tested at reduced scale.
"""

from __future__ import annotations

from typing import List, Optional

import repro.obs.metrics as obs_metrics
from repro.analysis.report import (
    comparison_markdown,
    edge_removal_markdown,
    markdown_table,
    sweep_markdown,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5_topology import run_fig5
from repro.experiments.fig6_scale import run_fig6a, run_fig6b
from repro.experiments.fig7_edges import run_fig7a, run_fig7b
from repro.experiments.fig8_switch import run_fig8a, run_fig8b
from repro.experiments.headline import PROPOSED, run_headline


def write_full_report(
    base: Optional[ExperimentConfig] = None,
    include_fig7b: bool = True,
    with_bounds: bool = False,
) -> str:
    """Run all figure experiments and return the Markdown report.

    Args:
        base: Experiment configuration (paper defaults when omitted).
        include_fig7b: The edge-removal study is the slowest experiment;
            allow skipping it for quick reports.
        with_bounds: Compute the certified LP bound per trial network
            (:mod:`repro.bounds`) so every sweep table carries ``LP
            bound`` and per-method optimality-gap columns.  Fig. 7(b)
            is excluded (its measure/remove loop has no per-trial
            network to certify once).
    """
    config = base or ExperimentConfig()
    if with_bounds:
        config = config.replace(bound="lp")
    sections: List[str] = [
        "# Evaluation report",
        "",
        f"Configuration: topology={config.topology}, "
        f"{config.n_switches} switches, {config.n_users} users, "
        f"D={config.avg_degree}, Q={config.qubits_per_switch}, "
        f"q={config.swap_prob}, α={config.alpha}, "
        f"{config.n_networks} networks/point, seed={config.seed}.",
        "",
    ]
    if with_bounds:
        sections += [
            "Rate tables report each method's mean optimality gap "
            "against a per-network certified upper bound "
            "(`docs/BOUNDS.md`): Algorithm 2's rate, tightened by the "
            "capacitated LP where no heuristic reaches it; "
            "capacity-exempt methods are measured against Algorithm "
            "2's rate.",
            "",
        ]

    sections.append(
        sweep_markdown(
            run_fig5(config),
            "Fig. 5 — rate vs topology",
            "The proposed algorithms dominate on every generator.",
        )
    )
    sections.append("")
    sections.append(
        sweep_markdown(
            run_fig6a(config),
            "Fig. 6(a) — rate vs number of users",
            "More users multiply more channels into Eq. (2).",
        )
    )
    sections.append("")
    sections.append(
        sweep_markdown(
            run_fig6b(config), "Fig. 6(b) — rate vs number of switches"
        )
    )
    sections.append("")
    sections.append(
        sweep_markdown(
            run_fig7a(config),
            "Fig. 7(a) — rate vs average degree",
            "Denser plants give better channel choices.",
        )
    )
    sections.append("")
    if include_fig7b:
        sections.append(
            edge_removal_markdown(
                run_fig7b(config.replace(bound="")),
                "Fig. 7(b) — rate vs removed-edge ratio",
            )
        )
        sections.append("")
    sections.append(
        sweep_markdown(
            run_fig8a(config),
            "Fig. 8(a) — rate vs qubits per switch",
            "Alg-2 models the sufficient-capacity case and stays flat.",
        )
    )
    sections.append("")
    sections.append(
        sweep_markdown(
            run_fig8b(config), "Fig. 8(b) — rate vs BSM success probability"
        )
    )
    sections.append("")

    headline = run_headline(config)
    rows = []
    for algorithm in PROPOSED:
        rows.append(
            [
                algorithm,
                headline.improvements.get((algorithm, "nfusion")),
                headline.improvements.get((algorithm, "eqcast")),
            ]
        )
    sections.append("### Headline improvements (Sec. V-B, percent)")
    sections.append("")
    sections.append(
        markdown_table(
            ["algorithm", "vs N-Fusion (%)", "vs E-Q-CAST (%)"], rows
        )
    )
    sections.append("")

    obs_section = _observability_markdown()
    if obs_section:
        sections.append(obs_section)
        sections.append("")
    return "\n".join(sections)


def _observability_markdown() -> str:
    """Render the active metrics registry as a report section.

    Empty string when no registry is collecting (``repro report`` runs
    without ``--metrics`` stay byte-identical to the classic output).
    """
    registry = obs_metrics.active()
    if registry is None:
        return ""
    lines = ["### Observability summary", ""]
    counters = registry.counters()
    if counters:
        rows = [[name, value] for name, value in sorted(counters.items())]
        lines.append(markdown_table(["counter", "value"], rows))
        lines.append("")
    summaries = registry.histogram_summaries()
    timing = summaries.get("experiments.trial_seconds")
    if timing:
        lines.append(
            f"Per-trial wall time: n={timing['count']}, "
            f"mean={timing['mean']:.4f}s, p50={timing['p50']:.4f}s, "
            f"p95={timing['p95']:.4f}s, p99={timing['p99']:.4f}s."
        )
        lines.append("")
    return "\n".join(lines).rstrip()

"""Markdown summary tables and per-figure CSV extracts from eval records."""

from __future__ import annotations

from collections import defaultdict

from .pipeline import EvalRecord, MetricsReport, compute_metrics


def group_records(records: list[EvalRecord]) -> dict[tuple[str, float], list[EvalRecord]]:
    groups: dict[tuple[str, float], list[EvalRecord]] = defaultdict(list)
    for r in records:
        groups[(r.mode, r.level_pct)].append(r)
    return dict(groups)


def summarize(records: list[EvalRecord]) -> list[MetricsReport]:
    groups = group_records(records)
    return [compute_metrics(groups[key]) for key in sorted(groups)]


def _num(value, digits=2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def render_markdown(records: list[EvalRecord]) -> str:
    """One table per mode, rows ordered by prediction level."""
    reports = summarize(records)
    by_mode: dict[str, list[MetricsReport]] = defaultdict(list)
    for rep in reports:
        by_mode[rep.mode].append(rep)
    lines = ["# Evaluation summary", ""]
    for mode in sorted(by_mode):
        lines.append(f"## Mode: {mode}")
        lines.append("")
        lines.append(
            "| level(%) | n | time_plain(s) | timeML(s) | timeimp | timegain(%) | inf(%) | optgap(%) |"
        )
        lines.append("|---:|---:|---:|---:|---:|---:|---:|---:|")
        for rep in sorted(by_mode[mode], key=lambda r: r.level_pct):
            lines.append(
                "| {level} | {n} | {cpx} | {ml} | {imp} | {gain} | {inf} | {gap} |".format(
                    level=_num(rep.level_pct, 0),
                    n=rep.m,
                    cpx=_num(rep.mean_time_plain, 4),
                    ml=_num(rep.mean_time_ml, 4),
                    imp=_num(rep.timeimp, 1),
                    gain=_num(rep.timegain_pct, 1),
                    inf=_num(rep.inf_pct, 2),
                    gap=_num(rep.mean_optgap_pct, 3),
                )
            )
        lines.append("")
    return "\n".join(lines)


def figure_csvs(records: list[EvalRecord]) -> dict[str, str]:
    """Per-mode CSVs of level against the three headline metrics."""
    reports = summarize(records)
    by_mode: dict[str, list[MetricsReport]] = defaultdict(list)
    for rep in reports:
        by_mode[rep.mode].append(rep)
    out = {}
    for mode, reps in by_mode.items():
        lines = ["level_pct,timeimp,inf_pct,optgap_pct"]
        for rep in sorted(reps, key=lambda r: r.level_pct):
            lines.append(
                f"{rep.level_pct:g},{'' if rep.timeimp is None else repr(rep.timeimp)},"
                f"{rep.inf_pct!r},"
                f"{'' if rep.mean_optgap_pct is None else repr(rep.mean_optgap_pct)}"
            )
        out[f"fig_levels_{mode}.csv"] = "\n".join(lines) + "\n"
    return out

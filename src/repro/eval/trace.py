"""Construction traces (the Fig. 2 experiment).

Fig. 2 of the paper tracks, while rules are iteratively added to a
translation table, (top) the number of uncovered ones ``|U|`` and errors
``|E|`` per side, and (bottom) the encoded lengths
``L(D_{L->R} | T)``, ``L(D_{L<-R} | T)``, ``L(T)`` and their total.
:class:`~repro.core.translator.TranslatorResult` already records one
snapshot per added rule; this module turns that history into plottable
series and a text rendering.
"""

from __future__ import annotations

from repro.data.dataset import Side
from repro.core.translator import TranslatorResult

__all__ = ["construction_trace", "format_trace"]

_SERIES_KEYS = (
    "uncovered_left",
    "uncovered_right",
    "errors_left",
    "errors_right",
    "L_left_to_right",
    "L_right_to_left",
    "L_table",
    "L_total",
)


def construction_trace(result: TranslatorResult) -> dict[str, list[float]]:
    """Extract the Fig. 2 series from a translator run.

    Returns a mapping of series name to per-iteration values; index 0 is
    the empty-table state, index ``i`` the state after the ``i``-th rule.
    Note the left-to-right translation is encoded by the *right* correction
    table: ``L(D_{L->R} | T) = L(C_R | T)``.
    """
    state = result.state
    dataset = state.dataset
    # Reconstruct the iteration-0 state from the dataset itself.
    baseline_right = float(
        (dataset.right.sum(axis=0) * state.cover(Side.RIGHT).weights).sum()
    )
    baseline_left = float(
        (dataset.left.sum(axis=0) * state.cover(Side.LEFT).weights).sum()
    )
    series: dict[str, list[float]] = {key: [] for key in _SERIES_KEYS}
    series["uncovered_left"].append(float(dataset.left.sum()))
    series["uncovered_right"].append(float(dataset.right.sum()))
    series["errors_left"].append(0.0)
    series["errors_right"].append(0.0)
    series["L_left_to_right"].append(baseline_right)
    series["L_right_to_left"].append(baseline_left)
    series["L_table"].append(0.0)
    series["L_total"].append(baseline_left + baseline_right)
    for record in result.history:
        series["uncovered_left"].append(float(record.uncovered_left))
        series["uncovered_right"].append(float(record.uncovered_right))
        series["errors_left"].append(float(record.errors_left))
        series["errors_right"].append(float(record.errors_right))
        series["L_left_to_right"].append(record.correction_bits_right)
        series["L_right_to_left"].append(record.correction_bits_left)
        series["L_table"].append(record.table_bits)
        series["L_total"].append(record.total_bits)
    return series


def format_trace(result: TranslatorResult, every: int = 1) -> str:
    """Plain-text rendering of a construction trace."""
    series = construction_trace(result)
    n_points = len(series["L_total"])
    header = (
        f"{'iter':>4} {'|U_L|':>7} {'|U_R|':>7} {'|E_L|':>6} {'|E_R|':>6} "
        f"{'L(L->R)':>10} {'L(L<-R)':>10} {'L(T)':>9} {'total':>10}"
    )
    lines = [header, "-" * len(header)]
    for index in range(0, n_points, max(1, every)):
        lines.append(
            f"{index:>4} "
            f"{series['uncovered_left'][index]:>7.0f} "
            f"{series['uncovered_right'][index]:>7.0f} "
            f"{series['errors_left'][index]:>6.0f} "
            f"{series['errors_right'][index]:>6.0f} "
            f"{series['L_left_to_right'][index]:>10.1f} "
            f"{series['L_right_to_left'][index]:>10.1f} "
            f"{series['L_table'][index]:>9.1f} "
            f"{series['L_total'][index]:>10.1f}"
        )
    return "\n".join(lines)

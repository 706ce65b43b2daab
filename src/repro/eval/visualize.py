"""Rule-set visualisation (the Fig. 3 experiment).

Fig. 3 of the paper draws each rule set as a tripartite graph: left-view
items on the left, right-view items on the right, one node per rule in the
middle, with grey edges for unidirectional membership (implication away
from the item) and black edges for bidirectional membership.  This module
builds that graph with ``networkx``, computes the statistics the paper
reads off the picture (how many rules, how many distinct items touched,
uni/bidirectional composition), and renders DOT and ASCII versions.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.data.dataset import TwoViewDataset
from repro.core.rules import Direction, TranslationRule
from repro.core.table import TranslationTable

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["rule_graph", "graph_statistics", "to_dot", "render_ascii"]


def rule_graph(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
) -> nx.Graph:
    """Build the Fig. 3 tripartite rule graph.

    Nodes carry a ``kind`` attribute (``"left_item"``, ``"rule"``,
    ``"right_item"``); edges carry ``bidirectional`` (bool).  An edge from
    an item to a rule is bidirectional when the implication also points
    *towards* that item's side.
    """
    # Imported here so that ``import repro`` does not load networkx.
    import networkx as nx

    graph = nx.Graph()
    rules = list(table)
    for rule_index, rule in enumerate(rules):
        rule_node = f"rule:{rule_index}"
        graph.add_node(
            rule_node, kind="rule", direction=rule.direction.value, index=rule_index
        )
        towards_left = rule.direction.applies_backward
        towards_right = rule.direction.applies_forward
        for item in rule.lhs:
            node = f"L:{dataset.left_names[item]}"
            graph.add_node(node, kind="left_item", item=item)
            # Black (bidirectional) edge when the implication also points
            # back to the left side; grey otherwise.
            graph.add_edge(node, rule_node, bidirectional=towards_left and towards_right)
        for item in rule.rhs:
            node = f"R:{dataset.right_names[item]}"
            graph.add_node(node, kind="right_item", item=item)
            graph.add_edge(node, rule_node, bidirectional=towards_left and towards_right)
    return graph


def graph_statistics(graph: nx.Graph) -> dict[str, float | int]:
    """The quantities the paper reads off Fig. 3."""
    rules = [node for node, data in graph.nodes(data=True) if data["kind"] == "rule"]
    left_items = [
        node for node, data in graph.nodes(data=True) if data["kind"] == "left_item"
    ]
    right_items = [
        node for node, data in graph.nodes(data=True) if data["kind"] == "right_item"
    ]
    bidirectional_rules = [
        node for node in rules if graph.nodes[node]["direction"] == Direction.BOTH.value
    ]
    rule_degrees = [graph.degree(node) for node in rules]
    return {
        "n_rules": len(rules),
        "n_left_items_used": len(left_items),
        "n_right_items_used": len(right_items),
        "n_edges": graph.number_of_edges(),
        "n_bidirectional_rules": len(bidirectional_rules),
        "bidirectional_share": (
            len(bidirectional_rules) / len(rules) if rules else 0.0
        ),
        "average_items_per_rule": (
            sum(rule_degrees) / len(rule_degrees) if rule_degrees else 0.0
        ),
        "max_items_per_rule": max(rule_degrees, default=0),
    }


def to_dot(graph: nx.Graph) -> str:
    """Render the rule graph as Graphviz DOT (no external deps)."""
    lines = [
        "graph rules {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=9];',
    ]
    for node, data in graph.nodes(data=True):
        name = node.replace('"', "'")
        if data["kind"] == "rule":
            label = data["direction"]
            lines.append(f'  "{name}" [shape=circle, label="{label}"];')
        else:
            label = node.split(":", 1)[1].replace('"', "'")
            lines.append(f'  "{name}" [label="{label}"];')
    for source, target, data in graph.edges(data=True):
        color = "black" if data.get("bidirectional") else "grey"
        source = source.replace('"', "'")
        target = target.replace('"', "'")
        lines.append(f'  "{source}" -- "{target}" [color={color}];')
    lines.append("}")
    return "\n".join(lines)


def render_ascii(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
    limit: int = 20,
) -> str:
    """Compact text rendering: one line per rule with direction glyphs."""
    lines: list[str] = []
    for index, rule in enumerate(table):
        if index >= limit:
            lines.append("  ...")
            break
        left = ", ".join(dataset.left_names[item] for item in rule.lhs)
        right = ", ".join(dataset.right_names[item] for item in rule.rhs)
        glyph = {"->": "==>", "<-": "<==", "<->": "<=>"}[rule.direction.value]
        lines.append(f"  [{left}] {glyph} [{right}]")
    return "\n".join(lines)

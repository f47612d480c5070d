"""Graphviz DOT export for the decision-diagram managers.

Produces diagrams in the visual style of the paper's Figure 1: solid lines
for 1-edges, dotted lines for 0-edges, and boxed terminals labelled ``F``
and ``T`` (or the integer value for MTBDDs).
"""

from __future__ import annotations



def _var_label(var: int, one_based: bool = True) -> str:
    return f"x{var + 1}" if one_based else f"x{var}"


def to_dot(manager, root: int, name: str = "DD", one_based: bool = True) -> str:
    """Render the diagram rooted at ``root`` as DOT text.

    Works for :class:`~repro.bdd.manager.BDD`, :class:`~repro.bdd.zdd.ZDD`
    and :class:`~repro.bdd.mtbdd.MTBDD` managers (anything exposing
    ``reachable``, ``is_terminal``, ``node`` and — for terminal labels —
    either the 0/1 convention or ``terminal_value``).
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    by_level = {}
    for u in manager.reachable(root):
        if manager.is_terminal(u):
            label = _terminal_label(manager, u)
            lines.append(f'  n{u} [shape=box, label="{label}"];')
        else:
            node = manager.node(u)
            lines.append(
                f'  n{u} [shape=circle, label="{_var_label(node.var, one_based)}"];'
            )
            by_level.setdefault(node.level, []).append(u)
    for u in sorted(manager.reachable(root)):
        if manager.is_terminal(u):
            continue
        node = manager.node(u)
        lines.append(f"  n{u} -> n{node.lo} [style=dotted];")
        lines.append(f"  n{u} -> n{node.hi} [style=solid];")
    for level in sorted(by_level):
        members = " ".join(f"n{u};" for u in sorted(by_level[level]))
        lines.append(f"  {{ rank=same; {members} }}")
    lines.append("}")
    return "\n".join(lines)


def _terminal_label(manager, u: int) -> str:
    terminal_value = getattr(manager, "terminal_value", None)
    if terminal_value is not None:
        try:
            return str(terminal_value(u))
        except KeyError:
            pass
    return "T" if u == 1 else "F"


def diagram_to_dot(nodes, root: int, num_terminals: int = 2,
                   name: str = "DD", one_based: bool = True) -> str:
    """DOT export for the raw node dictionaries produced by the FS
    reconstruction (:mod:`repro.core.reconstruct`).

    ``nodes`` maps node id to ``(var, lo, hi)``; ids below
    ``num_terminals`` are terminals (``0`` = F, ``1`` = T for BDDs).
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    reachable = set()
    stack = [root]
    while stack:
        u = stack.pop()
        if u in reachable:
            continue
        reachable.add(u)
        if u >= num_terminals:
            _, lo, hi = nodes[u]
            stack.extend((lo, hi))
    for u in sorted(reachable):
        if u < num_terminals:
            label = "T" if u == 1 else "F" if u == 0 else str(u)
            lines.append(f'  n{u} [shape=box, label="{label}"];')
        else:
            var, lo, hi = nodes[u]
            lines.append(
                f'  n{u} [shape=circle, label="{_var_label(var, one_based)}"];'
            )
            lines.append(f"  n{u} -> n{lo} [style=dotted];")
            lines.append(f"  n{u} -> n{hi} [style=solid];")
    lines.append("}")
    return "\n".join(lines)

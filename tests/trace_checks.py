"""Brute-force re-verification of recorded recursion frame traces.

Used by unit and acceptance tests: every pivot's radius choice, label
stamps and fringe set, and the resulting core partition, are recomputed
from scratch with the independent Dijkstra oracle and compared against
the trace.
"""
import math

from oracles import dijkstra


def verify_frames(g, frames, params):
    """Assert every recorded frame is internally consistent with oracle
    distances on the induced subgraph.  ``g`` is the root graph the frames
    were produced from and ``params`` the parameters they were built with:
    each pivot's rho must be the first candidate of its sigma interval
    with the least fringe.  Core groups must come with their members
    ascending, in the order of their sorted (pivot, kind) label tuples."""
    for ft in frames:
        verts = ft.vertices
        assert verts == sorted(set(verts)), "frame vertices not ascending"
        vset = set(verts)
        local = {v: i for i, v in enumerate(verts)}
        edges = [(local[u], local[v], w) for u, v, w in g.iter_edges()
                 if u in vset and v in vset]
        nloc = len(verts)
        labels = {v: set() for v in verts}
        x_set = set()
        for pt in ft.pivots:
            p = local[pt.pivot]
            fdist = dijkstra(nloc, edges, p)
            bdist = dijkstra(nloc, edges, p, reverse=True)
            dmin = [min(a, b) for a, b in zip(fdist, bdist)]
            lo = params.rho_min + 1 + params.interval_width * (pt.sigma - 1)
            sizes = [(sum((rho - 1) * ft.d_r < x <= (rho + 1) * ft.d_r
                          for x in dmin), rho)
                     for rho in range(math.ceil(lo),
                                      math.ceil(lo + params.interval_width))]
            assert (pt.fringe_size, pt.rho) == min(sizes), \
                f"rho of pivot {pt.pivot} is not the first least fringe"
            radius = pt.rho * ft.d_r
            des = {verts[v] for v in range(nloc) if fdist[v] <= radius}
            anc = {verts[v] for v in range(nloc) if bdist[v] <= radius}
            assert sorted(des) == pt.descendants, \
                f"descendants mismatch for pivot {pt.pivot}"
            assert sorted(anc) == pt.ancestors, \
                f"ancestors mismatch for pivot {pt.pivot}"
            for v in des:
                labels[v].add((pt.pivot, "D"))
            for v in anc:
                labels[v].add((pt.pivot, "A"))
            x_set |= des & anc
            fringe = {verts[v] for v in range(nloc)
                      if (pt.rho - 1) * ft.d_r < dmin[v]
                      <= (pt.rho + 1) * ft.d_r}
            assert sorted(fringe) == pt.fringe, \
                f"fringe mismatch for pivot {pt.pivot}"
            assert pt.fringe_size == len(fringe)
        assert sorted(x_set) == ft.x_vertices
        # rebuild the core partition from the label state, in order
        want = {}
        for v in verts:
            if v not in x_set:
                want.setdefault(tuple(sorted(labels[v])), []).append(v)
        assert ft.groups == [want[key] for key in sorted(want)], \
            "partition mismatch"
        # structural properties
        seen = set()
        pivot_ids = {pt.pivot for pt in ft.pivots}
        for grp in ft.groups:
            gset = set(grp)
            assert not (gset & seen), "core groups overlap"
            assert not (gset & x_set), "X vertex left in a core group"
            assert not (gset & pivot_ids), "pivot left in a core group"
            seen |= gset
        assert seen == vset - x_set

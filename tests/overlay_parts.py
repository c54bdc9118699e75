"""Connected components of an overlay, a reference the tests check against."""


def overlay_components(g):
    """(crossing ids, face ids, edge positions) of each connected component.

    Orders within each tuple follow the graph's global order, and
    components are listed by their first crossing.  A face with no edge
    is in none.
    """
    root = {}

    def find(x):
        while root.setdefault(x, x) != x:
            x = root[x]
        return x

    for e in g.edges:
        root[find(("c", e.crossing_id))] = find(("f", e.face_id))
    parts = {find(("c", cid)): ([], [], []) for cid in g.crossings}
    for cid in g.crossings:
        parts[find(("c", cid))][0].append(cid)
    for fid in g.faces:
        if find(("f", fid)) in parts:
            parts[find(("f", fid))][1].append(fid)
    for i, e in enumerate(g.edges):
        parts[find(("c", e.crossing_id))][2].append(i)
    return [tuple(map(tuple, part)) for part in parts.values()]

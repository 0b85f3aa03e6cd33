"""Reference answers computed without the library under test.

Everything here works on plain ints (bitsets), tuples and strings, and
imports nothing from ``conceptua``, so the benchmark can check a result of
the library against an independent computation.
"""


def bit_indices(mask):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def lectic_key(extent, n):
    """Sort key for lectic order of extents, object 0 being the most significant."""
    return int(format(extent, f"0{n}b")[::-1], 2) if n else 0


def concepts(rows, n_att):
    """All formal concepts as (extent, intent) bitsets, in lectic order of extents.

    The intents are the intersection closure of the object intents; the
    full attribute set is the intersection of the empty family.
    """
    intents = {(1 << n_att) - 1}
    for row in rows:
        intents |= {row & other for other in intents}
    pairs = []
    for intent in intents:
        extent = 0
        for g, row in enumerate(rows):
            if intent & ~row == 0:
                extent |= 1 << g
        pairs.append((extent, intent))
    pairs.sort(key=lambda pair: lectic_key(pair[0], len(rows)))
    return pairs


def covers(extents, n_obj):
    """Covering pairs (i, j), extent i strictly below extent j, sorted.

    Up-sets come from one column bitset per object; the covers are the
    transitive reduction of the strict up-sets.
    """
    columns = [0] * n_obj
    for k, extent in enumerate(extents):
        for g in bit_indices(extent):
            columns[g] |= 1 << k
    everything = (1 << len(extents)) - 1
    strict = []
    for k, extent in enumerate(extents):
        up = everything
        for g in bit_indices(extent):
            up &= columns[g]
        strict.append(up & ~(1 << k))
    edges = []
    for i, up in enumerate(strict):
        reach = 0
        for k in bit_indices(up):
            reach |= strict[k]
        edges.extend((i, j) for j in bit_indices(up & ~reach))
    return edges


def first_witness(a_rows, b_rows, inst_map, typ_map, n_a_types):
    """First (target instance, source type) pair breaking the fundamental
    condition A(f(x), y) == B(x, g(y)) of an infomorphism, or None."""
    for x, b_row in enumerate(b_rows):
        a_row = a_rows[inst_map[x]]
        for y in range(n_a_types):
            if (a_row >> y & 1) != (b_row >> typ_map[y] & 1):
                return x, y
    return None


# ------------------------------------------------------------- sentences
# A sentence is a tuple: ("var", name), ("not", s), ("and" | "or" |
# "implies", s, t), ("top",) or ("bottom",).


def random_sentence(rng, names, depth):
    if depth <= 1 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return (rng.choice(("top", "bottom")),)
        return ("var", rng.choice(names))
    if rng.random() < 0.25:
        return ("not", random_sentence(rng, names, depth - 1))
    op = rng.choice(("and", "or", "implies"))
    return (op, random_sentence(rng, names, depth - 1), random_sentence(rng, names, depth - 1))


def render(s):
    """Prefix s-expression syntax, e.g. ``(and (var p) (not (var q)))``."""
    if s[0] == "var":
        return f"(var {s[1]})"
    if s[0] in ("top", "bottom"):
        return s[0]
    return "(" + " ".join([s[0]] + [render(t) for t in s[1:]]) + ")"


def holds(s, true_vars):
    head = s[0]
    if head == "var":
        return s[1] in true_vars
    if head == "top":
        return True
    if head == "bottom":
        return False
    if head == "not":
        return not holds(s[1], true_vars)
    lhs, rhs = holds(s[1], true_vars), holds(s[2], true_vars)
    if head == "and":
        return lhs and rhs
    if head == "or":
        return lhs or rhs
    return (not lhs) or rhs


def sentence_types(n_vars, depth):
    """Number of distinct truth tables reachable by sentences of the given depth."""
    if depth < 1:
        return 0
    n_models = 1 << n_vars
    full = (1 << n_models) - 1
    tables = {full, 0}
    for v in range(n_vars):
        tables.add(sum(1 << m for m in range(n_models) if m >> v & 1))
    for _level in range(2, depth + 1):
        prev = list(tables)
        tables |= {~t & full for t in prev}
        for t in prev:
            for u in prev:
                tables |= {t & u, t | u, (~t | u) & full}
    return len(tables)


# ------------------------------------------------------- theories, merging


def reduct_table(n_src, n_tgt, var_map):
    """Source valuation (as bits) of each target valuation along the variable map."""
    return [sum(1 << v for v in range(n_src) if m >> var_map[v] & 1) for m in range(1 << n_tgt)]


def fiber_transports(n_src, n_tgt, var_map):
    """Left and right tables of transport -| inverse transport between the
    fibers of all model classes; a theory is indexed by its model mask."""
    reduct = reduct_table(n_src, n_tgt, var_map)
    left = []
    for theory in range(1 << (1 << n_src)):
        left.append(sum(1 << m for m, r in enumerate(reduct) if theory >> r & 1))
    right = []
    for theory in range(1 << (1 << n_tgt)):
        mask = 0
        for m in bit_indices(theory):
            mask |= 1 << reduct[m]
        right.append(mask)
    return left, right


def merge(span, left_s, right_s):
    """Pushout labels and merged model class of a span, as plain sets.

    ``span`` has the layout of a merge span file; ``left_s`` and
    ``right_s`` are its two sentences. A model is a frozenset of true
    pushout labels; it is in the merge when its reducts to both sides
    satisfy that side's sentence.
    """
    left_vars = span["left"]["signature"]
    right_vars = span["right"]["signature"]
    nodes = [("L", v) for v in left_vars] + [("R", v) for v in right_vars]
    parent = {node: node for node in nodes}

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for b in span["base"]:
        root_l, root_r = find(("L", span["left_map"][b])), find(("R", span["right_map"][b]))
        if root_l != root_r:
            parent[root_r] = root_l
    label_of_root = {}
    for b in span["base"]:
        label_of_root.setdefault(find(("L", span["left_map"][b])), f"C.{b}")
    label = {node: label_of_root.get(find(node), f"{node[0]}.{node[1]}") for node in nodes}
    labels = sorted(set(label.values()))
    models = set()
    for bits in range(1 << len(labels)):
        true = {labels[k] for k in range(len(labels)) if bits >> k & 1}
        if holds(left_s, {v for v in left_vars if label[("L", v)] in true}) and \
                holds(right_s, {v for v in right_vars if label[("R", v)] in true}):
            models.add(frozenset(true))
    return set(labels), models


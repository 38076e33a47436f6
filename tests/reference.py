"""A plain model of the README's commit rules and of reading a reply, for
differential tests.

It imports nothing from ``convground``, so no shortcut can leak into it, and
has no index, no memo and no early return: every lookup is a scan in
position order. It works on trees shaped as ``to_json_dict()`` gives them. A
fact is a ``(key, value)`` pair keyed as ``str(FactKey)`` reads; outcomes
and ops take the shapes ``scripts/commit_digest.py`` digests.
"""

import ast
import json
import re

STOPWORDS = {"of", "the", "a", "an", "in", "on", "about", "for", "and",
             "information", "data", "short", "text"}
DROPPED = re.compile(r"km2|m2|kg|km|m|%|\d+")
SCALARS = ("table_domain", "table_content", "row_count", "column_count")
TEXTS = {"table_domain", "table_content", "description"}
ACCEPTS = {"explicit", "implicit"}


class SchemaError(ValueError):
    """A tree that ``canonicalize`` rejects."""


def terms(text):
    """Lowercased runs of ``[0-9a-z%]``, less stopwords, units and numbers."""
    tokens = re.sub(r"[^0-9a-z%]+", " ", text.lower()).split()
    return {t for t in tokens if t not in STOPWORDS and not DROPPED.fullmatch(t)}


def texts_equivalent(a, b):
    """Equal texts, or texts whose token sets are non-empty and nest."""
    if a == b:
        return True
    ta, tb = terms(a), terms(b)
    return bool(ta and tb) and (ta <= tb or tb <= ta)


def field(key):
    return "column" if key.startswith("column:") else key


def keys_equivalent(a, b):
    """Equal keys, or the keys of two columns whose names are equivalent texts."""
    both = field(a) == field(b) == "column"
    return a == b or both and texts_equivalent(a[len("column:"):], b[len("column:"):])


def first(keys, key):
    """The first position in ``keys`` (None where retired) equivalent to ``key``."""
    return next((i for i, k in enumerate(keys) if k is not None and keys_equivalent(k, key)), None)


def matched(left, right, eq):
    """Whether both lists pair one to one under ``eq``: augmenting paths over all pairs."""
    owner = {}

    def augment(i, seen):
        for j, y in enumerate(right):
            if j not in seen and eq(left[i], y):
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return len(left) == len(right) and all(augment(i, set()) for i in range(len(left)))


def fields(column):
    return {n: v for n, v in column.items() if n != "column_name"}


def values_equivalent(name, a, b):
    """The one equivalence rule for two values of the field ``name``."""
    if name == "column":
        fa, fb = fields(a), fields(b)
        return (texts_equivalent(a["column_name"], b["column_name"]) and fa.keys() == fb.keys()
                and all(values_equivalent(n, fa[n], fb[n]) for n in fa))
    if name == "values":  # texts as texts, anything else when identical or ``==``
        return matched(a, b, lambda x, y: texts_equivalent(x, y) if isinstance(x, str)
                       and isinstance(y, str) else x is y or x == y)
    if name in TEXTS:
        return texts_equivalent(str(a), str(b))
    return a is b or a == b


def equivalent(a, b):
    """The judge: the facts of two trees pair one to one, field to field."""
    return matched(facts(a), facts(b), lambda x, y: field(x[0]) == field(y[0])
                   and values_equivalent(field(x[0]), x[1], y[1]))


def facts(tree):
    """The top-level fields of ``tree`` in schema order, then its columns."""
    out = [(name, tree[name]) for name in SCALARS if name in tree]
    return out + [("column:" + c["column_name"], c) for c in tree.get("column_info", ())]


def tree_of(fact_list):
    """The inverse of :func:`facts`."""
    tree = {key: value for key, value in fact_list if field(key) != "column"}
    columns = [value for key, value in fact_list if field(key) == "column"]
    return {**tree, "column_info": columns} if columns else tree


def ordered(column):
    """A column's minimum does not exceed its maximum (a NaN never does)."""
    low, high = column.get("min_value"), column.get("max_value")
    return low is None or high is None or not low > high


def union(old, new):
    """Column ``old``, its name kept, with each field of ``new`` updated into it."""
    return {**old, **{n: updated(n, old[n], v) if n in old else v for n, v in fields(new).items()}}


def updated(name, old, new):
    """The longer text (a tie keeps ``old``); a column's union, or, where its
    bounds cross, ``new``'s fields under ``old``'s name; else ``new``."""
    if name == "column":
        merged = union(old, new)
        return merged if ordered(merged) else {"column_name": old["column_name"], **fields(new)}
    if name in TEXTS:
        return new if len(str(new)) > len(str(old)) else old
    return new


def fold(out, fact_list):
    """Each fact in turn joins the first equivalent one of ``out`` (a column
    by the update rule, keeping its name), or is appended."""
    out = list(out)
    for key, value in fact_list:
        i = first([k for k, _ in out], key)
        if i is None:
            out.append((key, value))
        elif field(key) == "column":
            out[i] = (out[i][0], updated("column", out[i][1], value))
        else:
            out[i] = (key, value)
    return out


# A quoted string in either style, escapes included, or else a bare ``null``.
NULL_OUTSIDE_STRINGS = re.compile(
    r"""'(?:[^'\\]|\\[\s\S])*'?|"(?:[^"\\]|\\[\s\S])*"?|\bnull\b"""
)


def reply_tree(text):
    """The tree of a reply's text: ``json``'s, else that of ``ast.literal_eval``
    with ``null`` outside strings read as ``None``, of the text and then of
    ``[text]``, which reads a bare ``{...}, {...}`` sequence. Raises
    ``ValueError`` when none reads."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        pass
    literal = NULL_OUTSIDE_STRINGS.sub(lambda m: "None" if m[0] == "null" else m[0], text)
    for candidate in (literal, f"[{literal}]"):
        try:
            return ast.literal_eval(candidate)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            continue
    raise ValueError("not a reply tree")


def canonicalize(raw):
    """The fold of a tree's facts, or a list of trees'; rejects crossed bounds
    in an entry and a folded ``distinct_count`` above ``row_count``."""
    fact_list = []
    for tree in [raw] if isinstance(raw, dict) else raw:
        if not all(ordered(c) for c in tree.get("column_info", ())):
            raise SchemaError("min_value exceeds max_value")
        fact_list += facts(tree)
    tree = tree_of(fold([], fact_list))
    rows, columns = tree.get("row_count"), tree.get("column_info", ())
    if rows is not None and any(c.get("distinct_count", 0) > rows for c in columns):
        raise SchemaError("distinct_count exceeds row_count")
    return tree


def classify(name, old, new):
    """Conflict unless the values agree (for columns: the shared fields, and
    the union's bounds); else a match when the update leaves ``old`` as it is."""
    if name == "column":
        merged = union(old, new)
        shared = fields(old).keys() & fields(new).keys()
        agree = ordered(merged) and all(values_equivalent(n, old[n], new[n]) for n in shared)
    else:
        merged = updated(name, old, new)
        agree = values_equivalent(name, old, new)
    return "conflict" if not agree else "match" if merged == old else "partial_match"


def assess(kb, delta):
    """Each fact of ``delta`` against the first equivalent one of ``kb`` no conflict retired."""
    kb_facts = facts(kb)
    keys = [key for key, _ in kb_facts]
    outcomes = []
    for key, value in facts(delta):
        i = first(keys, key)
        verdict = "novel" if i is None else classify(field(key), kb_facts[i][1], value)
        outcomes.append((key, verdict, "None" if i is None else keys[i]))
        if verdict == "conflict":
            keys[i] = None
    return outcomes


def plan(delta, outcomes):
    ops = []
    for (key, value), (_, verdict, target) in zip(facts(delta), outcomes):
        if verdict == "match":
            ops.append({"op": "InstantiateNode", "target": target})
        elif verdict == "partial_match":
            ops.append({"op": "UpdateNode", "target": target, "payload": value})
        else:
            if verdict == "conflict":
                ops.append({"op": "RemoveNode", "target": target})
            ops.append({"op": "CreateNode", "target": key, "payload": value})
    return ops


def merge(kb, ops):
    """Apply a plan's ops to ``kb`` in order, then fold the created facts into the kept ones."""
    kept, created = dict(facts(kb)), []
    for op in ops:
        kind, key = op["op"], op["target"]
        if kind == "CreateNode":
            created.append((key, op["payload"]))
        elif kind == "RemoveNode":
            del kept[key]
        elif kind == "UpdateNode":
            kept[key] = updated(field(key), kept[key], op["payload"])
    return tree_of(fold(kept.items(), created))


def commit(kb, delta):
    outcomes = assess(kb, delta)
    ops = plan(delta, outcomes)
    return merge(kb, ops), outcomes, ops


def present(pending, delta):
    return commit(pending, delta)[0]


def step(grounded, pending, role, label, delta):
    """A provider presents ``delta`` whatever the label, a seeker only on an
    accepting one, which then commits what is pending."""
    if role == "provider" or label in ACCEPTS:
        pending = present(pending, delta)
    if label not in ACCEPTS:
        return grounded, pending, []
    grounded, _, ops = commit(grounded, pending)
    return grounded, {}, ops


def process(turns):
    """The final grounded and pending trees of ``(role, label, delta)``
    turns, and each turn's ops."""
    grounded, pending, history = {}, {}, []
    for role, label, delta in turns:
        grounded, pending, ops = step(grounded, pending, role, label, delta)
        history.append(ops)
    return grounded, pending, history

"""Seeded inputs: databases, query shapes and operation schedules.

Every schedule is plain JSON-able data derived from ``--seed`` alone (and
the run length), so one seed gives a byte-identical schedule and the
program only ever sees the generated inputs.  Query objects are built
from an operation spec at run time by :func:`build_query`.

Each schedule is a list of *rounds*.  A round holds the operation kinds
of its workload in fixed proportions (stratified), shuffled by the seed;
between seeds only literals, order and generated rows differ.  That keeps
the mix, and hence where the latency percentiles fall, the same for
every seed.
"""

from __future__ import annotations

import json
import random

# TPC-H-lite at scale ~4 over the generator defaults (12/25/40/5/10).
TPCH_SIZES = dict(
    customers=48, orders=100, lineitems=160, suppliers=20, parts=40, nations=8, regions=3
)
TPCH_NULL_RATE = 0.05

ADHOC_STRATEGIES = ("naive", "approx-guagliardo16", "auto", "sql-3vl")
SHARDED_STRATEGIES = ("naive", "approx-guagliardo16")
CERTAIN_STRATEGIES = (
    "exact-certain",
    "ctables",
    "approx-libkin16",
    "approx-guagliardo16",
    "auto",
)

# Literal ranges per query shape.  Narrow on purpose: every literal is
# fresh (so every key is distinct), but selectivity, and with it the work
# of an operation, hardly depends on the seed.
_SHAPE_LITERALS = {
    "join": [(240.0, 260.0)],
    "select": [(48.0, 52.0), (93.0, 95.0)],
    "unordered": [(20.0, 30.0)],
    "unshipped": [(100.0, 150.0)],
    "localsupp": [(61.0, 63.0)],
    "nonlocal": [(20.0, 30.0)],
}
SHAPES = tuple(_SHAPE_LITERALS)

# (shape, form, strategy) triples the ad-hoc stream draws from.  Every
# shape runs as an algebra plan under naive/Q+/auto and as SQL text under
# every strategy that accepts it.  Two exclusions, both by necessity:
# sql-3vl cannot run algebra plans, and on the four-way q_localsupp its
# nested-loop evaluator enumerates 48*100*160*20 row combinations; the
# NOT EXISTS form of q_nonlocal compiles to no algebra, so only auto and
# sql-3vl accept it.
ADHOC_COMBOS = tuple(
    [(shape, "algebra", s) for shape in SHAPES for s in ADHOC_STRATEGIES[:3]]
    + [
        (shape, "sql", s)
        for shape in ("join", "select", "unordered", "unshipped")
        for s in ADHOC_STRATEGIES
    ]
    + [("localsupp", "sql", s) for s in ADHOC_STRATEGIES[:3]]
    + [("nonlocal", "sql", s) for s in ("auto", "sql-3vl")]
)
# Q+ of the four-way q_localsupp is one SQLite statement whose null-
# tolerant join conditions grow super-linearly, and auto picks Q+ for it
# as well.  Its literal range keeps about a third of lineitem, where it
# takes ~55 ms against 1-15 ms for every other combo (at 15-25, most of
# lineitem, it took 120-135 ms).  The stream keeps the algebra-plan Q+
# form, once per round, and leaves out the three other forms that run
# the same statement, so that this one query is under a third of a round.
ADHOC_HEAVY_DROPPED = (
    ("localsupp", "algebra", "auto"),
    ("localsupp", "sql", "approx-guagliardo16"),
    ("localsupp", "sql", "auto"),
)
ADHOC_MIX = tuple(c for c in ADHOC_COMBOS if c not in ADHOC_HEAVY_DROPPED)
SERVE_COMBOS = tuple(c for c in ADHOC_MIX if c[1] == "sql")
# The two NOT EXISTS forms of q_nonlocal (~13 ms each, a tight group) run
# twice per round: the top tenth of a round's 38 operations is then that
# group plus the Q+ query, so p90 falls inside one group of operations
# rather than on the edge between two, where it jumps from run to run.
ADHOC_ROUND = ADHOC_MIX + tuple(c for c in ADHOC_MIX if c[0] == "nonlocal" and c[1] == "sql")

# Relations each shape reads (rows examined per row returned).
SHAPE_RELATIONS = {
    "join": ("customer", "orders"),
    "select": ("customer",),
    "unordered": ("customer", "orders"),
    "unshipped": ("orders", "lineitem"),
    "localsupp": ("customer", "orders", "lineitem", "supplier"),
    "nonlocal": ("customer", "nation", "supplier"),
}

# The sharded read set.  Q+ of q_localsupp is left to adhoc-tpch: at
# several times the cost of any other read it would be most of this
# workload's time, and the layers measured here are the shard plan,
# fan-out and merge around it.
SHARDED_READ_COMBOS = tuple(
    (shape, "algebra", s)
    for shape in ("join", "select", "unshipped")
    for s in SHARDED_STRATEGIES
) + (("localsupp", "algebra", "naive"),)
SHARDED_READ_VARIANTS = 3
APPEND_RELATIONS = ("lineitem", "orders", "customer")

CERTAIN_RELATIONS = {
    "c_diff": ("R", "T"),
    "c_join": ("R", "S"),
    "c_antijoin": ("D", "R", "S"),
    "c_const": ("T", "R"),
}
CERTAIN_QUERIES = tuple(CERTAIN_RELATIONS)
CERTAIN_DOMAIN = tuple(f"a{i}" for i in range(6))
CERTAIN_ROWS = {"R": 18, "S": 15, "T": 6}

# Nominal rounds per second on a 2-core x86 VM in its fast state (a slow
# state runs the same schedule up to ~2x longer); a run executes
# ``seconds * rate`` rounds, a fixed schedule rather than a timed loop.
ROUNDS_PER_SECOND = {
    "adhoc-tpch": 4.5,
    "serve-zipf": 1.1,
    "sharded-append": 3.4,
    "certain-exact": 1.8,
}
SERVE_REQUESTS_PER_ROUND = 20  # per client
SERVE_CLIENTS = 2
ZIPF_S = 1.1


def round_count(workload: str, seconds: float) -> int:
    return max(3, round(seconds * ROUNDS_PER_SECOND[workload]))


def schedule_bytes(schedule) -> bytes:
    """The canonical encoding the byte-identity self-test compares."""
    return json.dumps(schedule, sort_keys=True, separators=(",", ":")).encode()


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


class _Literals:
    """Fresh literals per shape, across forms and strategies: no two
    operations share a query, so none can hit another's cache entry
    (auto shares entries with the strategy it picks)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()

    def draw(self, combo) -> list[float]:
        shape = combo[0]
        while True:
            lits = [round(self.rng.uniform(lo, hi), 2) for lo, hi in _SHAPE_LITERALS[shape]]
            if shape == "select":
                lits.append(self.rng.randrange(TPCH_SIZES["nations"]))
            key = (shape, tuple(lits))
            if key not in self.seen:
                self.seen.add(key)
                return lits


def _op(combo, lits) -> dict:
    shape, form, strategy = combo
    return {"shape": shape, "form": form, "strategy": strategy, "lits": lits}


# ----------------------------------------------------------------------
# adhoc-tpch
# ----------------------------------------------------------------------
def adhoc_schedule(seed: int, rounds: int, stream: str = "timed") -> list[list[dict]]:
    """Per round: the round's combos, each with fresh literals."""
    rng = _stream(seed, f"adhoc:{stream}")
    literals = _Literals(rng)
    schedule = []
    for _ in range(rounds):
        ops = [_op(combo, literals.draw(combo)) for combo in ADHOC_ROUND]
        rng.shuffle(ops)
        schedule.append(ops)
    return schedule


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
def serve_catalogue(seed: int) -> list[dict]:
    """Fixed (SQL text, strategy) keys: every SQL combo of the mix at two literal sets."""
    literals = _Literals(_stream(seed, "serve:catalogue"))
    return [_op(combo, literals.draw(combo)) for combo in SERVE_COMBOS for _ in range(2)]


def serve_schedule(seed: int, rounds: int, stream: str = "timed") -> list[list[list[int]]]:
    """Per round, per client: Zipf-skewed indexes into the catalogue."""
    size = len(SERVE_COMBOS) * 2
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]
    schedule = []
    rngs = [_stream(seed, f"serve:{stream}:{c}") for c in range(SERVE_CLIENTS)]
    # Each client's tenant ranks the catalogue in its own fixed order.
    # Which keys are hot does not change with the seed: result sizes, and
    # with them the server's work per request, differ up to 50x between
    # keys.  The seed varies the literals and the Zipf draws.
    orders = []
    for client in range(SERVE_CLIENTS):
        order = list(range(size))
        random.Random(f"serve:rank:{client}").shuffle(order)
        orders.append(order)
    for _ in range(rounds):
        schedule.append(
            [
                [
                    orders[c][i]
                    for i in rngs[c].choices(range(size), weights, k=SERVE_REQUESTS_PER_ROUND)
                ]
                for c in range(SERVE_CLIENTS)
            ]
        )
    return schedule


# ----------------------------------------------------------------------
# sharded-append
# ----------------------------------------------------------------------
def sharded_reads(seed: int) -> list[dict]:
    """The fixed read set: every read combo at three literal sets."""
    literals = _Literals(_stream(seed, "sharded:reads"))
    return [
        _op(combo, literals.draw(combo))
        for combo in SHARDED_READ_COMBOS
        for _ in range(SHARDED_READ_VARIANTS)
    ]


def _append_rows(rng: random.Random, relation: str, tag: str) -> list[list]:
    s = TPCH_SIZES
    rows = []
    for i in range(2):
        key = f"{tag}_{i}"
        if relation == "lineitem":
            rows.append(
                [
                    "l" + key,
                    f"o{rng.randrange(s['orders'])}",
                    f"p{rng.randrange(s['parts'])}",
                    f"s{rng.randrange(s['suppliers'])}",
                    rng.randrange(1, 50),
                    rng.randrange(100, 10_000) / 100.0,
                ]
            )
        elif relation == "orders":
            rows.append(
                [
                    "o" + key,
                    f"c{rng.randrange(s['customers'])}",
                    rng.choice(["F", "O", "P"]),
                    rng.randrange(100, 50_000) / 100.0,
                ]
            )
        else:
            rows.append(
                [
                    "c" + key,
                    f"Customer#{key}",
                    f"n{rng.randrange(s['nations'])}",
                    rng.randrange(0, 10_000) / 100.0,
                ]
            )
    return rows


def sharded_schedule(seed: int, rounds: int, stream: str = "timed") -> list[list[dict]]:
    """Per round, for lineitem, orders and customer in turn: one 2-row
    append to that relation, then every read of the read set."""
    rng = _stream(seed, f"sharded:{stream}")
    reads = sharded_reads(seed)
    schedule = []
    for r in range(rounds):
        ops = []
        for relation in APPEND_RELATIONS:
            ops.append({"append": relation, "rows": _append_rows(rng, relation, f"x{r}{relation[0]}")})
            order = list(range(len(reads)))
            rng.shuffle(order)
            ops.extend({"read": i} for i in order)
        schedule.append(ops)
    return schedule


# ----------------------------------------------------------------------
# certain-exact
# ----------------------------------------------------------------------
def certain_database_spec(rng: random.Random, tag: str, nulls: int) -> dict:
    """A small database over six constants with ``nulls`` marked nulls.

    R(A,B), S(B,C) and T(A) have 18, 15 and 6 rows, enough that the
    cheapest operations stay above a millisecond.

    Every constant occurs in D(A), so the valuation pool is always the
    six constants plus one fresh constant per null: 9**3 = 729
    valuations with three nulls, 8**2 = 64 with two.
    """
    dom = CERTAIN_DOMAIN
    relations = {
        "R": {"attributes": ["A", "B"], "rows": [[rng.choice(dom), rng.choice(dom)] for _ in range(CERTAIN_ROWS["R"])]},
        "S": {"attributes": ["B", "C"], "rows": [[rng.choice(dom), rng.choice(dom)] for _ in range(CERTAIN_ROWS["S"])]},
        "T": {"attributes": ["A"], "rows": [[rng.choice(dom)] for _ in range(CERTAIN_ROWS["T"])]},
    }
    cells = [
        (name, r, c)
        for name in ("R", "S", "T")
        for r, row in enumerate(relations[name]["rows"])
        for c in range(len(row))
    ]
    for i, (name, r, c) in enumerate(rng.sample(cells, nulls)):
        relations[name]["rows"][r][c] = {"null": f"{tag}n{i}"}
    relations["D"] = {"attributes": ["A"], "rows": [[v] for v in dom]}
    return relations


def certain_schedule(seed: int, rounds: int, stream: str = "timed") -> list[dict]:
    """Per round: two fresh databases, one with three nulls and one with
    two, each followed by every (query, strategy) pair once.

    Every round has the same mix, 729- and 64-valuation enumerations
    alike, so per-round throughput does not alternate between two
    levels, and p90 falls inside the group of libkin16 Dom^k operations
    rather than on the edge of the 729-valuation group.
    """
    rng = _stream(seed, f"certain:{stream}")
    schedule = []
    for r in range(rounds):
        entries = []
        for nulls in (3, 2):
            ops = [
                {"query": q, "strategy": s}
                for q in CERTAIN_QUERIES
                for s in CERTAIN_STRATEGIES
            ]
            rng.shuffle(ops)
            entries.append({"db": certain_database_spec(rng, f"{stream}{r}.{nulls}", nulls), "ops": ops})
        schedule.append(entries)
    return schedule


# ----------------------------------------------------------------------
# Building program inputs from the specs
# ----------------------------------------------------------------------
def tpch_database():
    """The TPC-H-lite instance: fixed, as TPC-H's data is at a scale factor.

    Like TPC-H's query generator, the seed varies the query parameters
    (and order, appended rows and Zipf draws), not the base data: Q+ of
    q_localsupp costs several times more or less depending on where the
    generator puts nulls, which would make throughput a function of the
    seed.  The data seed is the generator's default.
    """
    from repro.workloads import TpchLiteConfig, generate_tpch_lite

    return generate_tpch_lite(TpchLiteConfig(**TPCH_SIZES, null_rate=TPCH_NULL_RATE))


def build_database(spec: dict):
    from repro import Database, Null, Relation

    def value(v):
        return Null(v["null"]) if isinstance(v, dict) else v

    return Database(
        {
            name: Relation(tuple(rel["attributes"]), [tuple(value(v) for v in row) for row in rel["rows"]])
            for name, rel in spec.items()
        }
    )


def build_query(op: dict):
    """The program input for an ad-hoc/serve/sharded operation spec."""
    if op["form"] == "sql":
        return sql_text(op["shape"], op["lits"])
    return algebra_plan(op["shape"], op["lits"])


def sql_text(shape: str, lits: list) -> str:
    x = f"{lits[0]:.2f}"
    if shape == "join":
        return (
            "SELECT c.c_custkey, c.c_name, o.o_orderkey FROM customer c, orders o "
            f"WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > {x}"
        )
    if shape == "select":
        return (
            "SELECT c_custkey, c_acctbal FROM customer WHERE "
            f"(c_nationkey = 'n{lits[2]}' AND c_acctbal >= {x}) OR c_acctbal >= {lits[1]:.2f}"
        )
    if shape == "unordered":
        return (
            f"SELECT c_custkey FROM customer WHERE c_acctbal >= {x} "
            "EXCEPT SELECT o_custkey FROM orders"
        )
    if shape == "unshipped":
        return (
            f"SELECT o_orderkey FROM orders WHERE o_totalprice >= {x} "
            "EXCEPT SELECT l_orderkey FROM lineitem"
        )
    if shape == "localsupp":
        return (
            "SELECT c.c_custkey, o.o_orderkey, l.l_linekey "
            "FROM customer c, orders o, lineitem l, supplier s "
            "WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey "
            "AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey "
            f"AND l.l_extendedprice >= {x}"
        )
    if shape == "nonlocal":
        return (
            "SELECT c.c_custkey, c.c_name FROM customer c, nation n "
            f"WHERE c.c_nationkey = n.n_nationkey AND c.c_acctbal >= {x} "
            "AND NOT EXISTS (SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey)"
        )
    raise ValueError(f"unknown shape {shape!r}")


def algebra_plan(shape: str, lits: list):
    """The TPC-H-lite query shapes with the operation's literals."""
    from repro.algebra import builder as rb
    from repro.algebra.conditions import And, Attr, Eq, Ge, Gt, Literal, Or

    customer = rb.relation("customer")
    orders = rb.relation("orders")
    lineitem = rb.relation("lineitem")
    supplier = rb.relation("supplier")
    nation = rb.relation("nation")
    x = lits[0]
    if shape == "join":
        return rb.project(
            rb.select(
                rb.product(customer, orders),
                And(Eq(Attr("c_custkey"), Attr("o_custkey")), Gt(Attr("o_totalprice"), Literal(x))),
            ),
            ["c_custkey", "c_name", "o_orderkey"],
        )
    if shape == "select":
        return rb.project(
            rb.select(
                customer,
                Or(
                    And(Eq(Attr("c_nationkey"), Literal(f"n{lits[2]}")), Ge(Attr("c_acctbal"), Literal(x))),
                    Ge(Attr("c_acctbal"), Literal(lits[1])),
                ),
            ),
            ["c_custkey", "c_acctbal"],
        )
    if shape == "unordered":
        return rb.difference(
            rb.project(rb.select(customer, Ge(Attr("c_acctbal"), Literal(x))), ["c_custkey"]),
            rb.rename(rb.project(orders, ["o_custkey"]), {"o_custkey": "c_custkey"}),
        )
    if shape == "unshipped":
        return rb.difference(
            rb.project(rb.select(orders, Ge(Attr("o_totalprice"), Literal(x))), ["o_orderkey"]),
            rb.rename(rb.project(lineitem, ["l_orderkey"]), {"l_orderkey": "o_orderkey"}),
        )
    if shape == "localsupp":
        supp = rb.rename(supplier, {"s_nationkey": "sn_key"})
        cust = rb.rename(customer, {"c_nationkey": "cn_key"})
        return rb.project(
            rb.select(
                rb.product(rb.product(rb.product(cust, orders), lineitem), supp),
                And(
                    And(
                        Eq(Attr("c_custkey"), Attr("o_custkey")),
                        Eq(Attr("o_orderkey"), Attr("l_orderkey")),
                    ),
                    And(
                        And(Eq(Attr("l_suppkey"), Attr("s_suppkey")), Eq(Attr("cn_key"), Attr("sn_key"))),
                        Ge(Attr("l_extendedprice"), Literal(x)),
                    ),
                ),
            ),
            ["c_custkey", "o_orderkey", "l_linekey"],
        )
    if shape == "nonlocal":
        without_supplier = rb.difference(
            rb.project(nation, ["n_nationkey"]),
            rb.rename(rb.project(supplier, ["s_nationkey"]), {"s_nationkey": "n_nationkey"}),
        )
        return rb.project(
            rb.select(
                rb.product(customer, rb.rename(without_supplier, {"n_nationkey": "x_nationkey"})),
                And(Eq(Attr("c_nationkey"), Attr("x_nationkey")), Ge(Attr("c_acctbal"), Literal(x))),
            ),
            ["c_custkey", "c_name"],
        )
    raise ValueError(f"unknown shape {shape!r}")


def certain_query(name: str):
    """Small queries with difference and products over R(A,B), S(B,C), T(A), D(A)."""
    from repro.algebra import builder as rb
    from repro.algebra.conditions import Attr, Eq, Literal

    r, s, t, d = (rb.relation(n) for n in "RSTD")
    joined = rb.select(rb.product(r, rb.rename(s, {"B": "B2"})), Eq(Attr("B"), Attr("B2")))
    if name == "c_diff":
        return rb.difference(rb.project(r, ["A"]), t)
    if name == "c_join":
        return rb.project(joined, ["A", "C"])
    if name == "c_antijoin":
        return rb.difference(d, rb.project(joined, ["A"]))
    if name == "c_const":
        return rb.difference(t, rb.project(rb.select(r, Eq(Attr("B"), Literal("a1"))), ["A"]))
    raise ValueError(f"unknown certain-exact query {name!r}")

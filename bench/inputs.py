"""Seeded inputs for each workload, arranged in rounds.

Every round holds the same number of operations and the same kept
faults, so the failed share of attempted operations is identical in
every run whatever the seed and run length.  Each item is a dict of
program inputs; a `kept` key marks an operation that fails today
because of a named fault, and `ref` (dropped before the item reaches the
worker) carries the reference it is checked against.
"""

import random

import reference as ref

# successful operations per round, before the kept faults are appended
ROUND_SIZE = {"spectra": 14, "census": 48, "reports": 45, "cli": 8}
# rounds generated; a worker that runs out starts again from the first
ROUNDS = {"spectra": 24, "census": 40, "reports": 120, "cli": 40}

# solve_exact brackets at closed form +/- 20%; levels whose exact energy
# lies outside raise BracketError.  Within this relative distance of an
# edge the outcome is left to rounding, so those levels are left out too.
BRACKET_MARGIN = 1e-3
# each spectra round holds a fixed number of deep levels (|E| >= SPECTRA_DEEP_E,
# the ground states that need the most shots), so the cost mix, and with it
# the tail, does not depend on the seed.  The number is the deep share of the
# kept levels of the whole (D, l, alpha) grid, which is also the expected
# share of levels drawn by configuration; 86 of 595 levels (14.5 %) give 2
# of 14 per round.
SPECTRA_DEEP_E = 0.2
# each reports round has every radial index 0..REPORTS_N_MAX equally often
REPORTS_N_MAX = 8

SPECTRA_ANCHORS = (
    # (D, l, alpha, n): exact level outside the closed form +/- 20%
    (3, 1, 0.1, 2),
    (3, 1, 0.3, 0),
)
# count_bound_states marches to r_max = 30/alpha, too short to see the
# third gamma = 0 level at alpha = 0.22 (E = -5.6e-6, decay length 300):
# it returns 2 where the exact count is 3.  Drawn configurations with
# these (gamma, alpha) are left out and counted.
CENSUS_UNDERCOUNT = {(0.0, 0.22)}
REPORTS_KEPT = (20, 25, 30)  # D = 3, l = 0, alpha = 1e-3: normalization fault
# the program evaluates U through s = exp(-alpha r) and returns U = 0 once s
# underflows (alpha r > ~745), which cuts the tail of levels this shallow
CLI_MIN_EPSILON = 0.05

CLI_SUBCOMMANDS = ("spectrum", "wavefunction", "expectation")
# (subcommand, --format, --points) of each operation in a cli round
CLI_SLOTS = (
    ("spectrum", "csv", None), ("spectrum", "json", None),
    ("wavefunction", "csv", 500), ("wavefunction", "json", 1000),
    ("wavefunction", "csv", 2000), ("wavefunction", "json", 4000),
    ("expectation", "csv", None), ("expectation", "json", None),
)
CLI_OUT = 2  # operations per round that write through --out


def generate(workload: str, seed: int, table: dict | None = None) -> dict:
    """{"rounds": [[item, ...], ...], "excluded": {reason: count}}."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("spectra", "census") and table is None:
        table = ref.load_table()
    return _GENERATORS[workload](rng, table)


def exact_levels(table: dict, dim: int, l: int, alpha: float) -> list[float]:
    return [e for e, _ in table["levels"][ref.table_key(ref.gamma_coeff(dim, l), alpha)]]


def _spectra_item(table, dim, l, alpha, n):
    k = ref.interior_nodes(dim, n, l)
    exact = exact_levels(table, dim, l, alpha)
    e_cf = ref.closed_form_energy(1.0, alpha, 1.0, 1.0, dim, n, l)
    return {"D": dim, "l": l, "alpha": alpha, "n": n, "k": k,
            "ref": {"E_cf": e_cf, "E": exact[k] if k < len(exact) else None}}


def _spectra_levels(table, dim, l, alpha):
    """(item, None) for each kept closed-form level of a configuration, or
    (item, reason) for one left out."""
    for n in ref.closed_form_levels(1.0, alpha, 1.0, 1.0, dim, l):
        item = _spectra_item(table, dim, l, alpha, n)
        e, e_cf = item["ref"]["E"], item["ref"]["E_cf"]
        if e is None:
            yield item, "unbound"
        elif not (1.2 * e_cf < e < 0.8 * e_cf):
            yield item, "bracket"
        elif min(abs(e - 1.2 * e_cf), abs(e - 0.8 * e_cf)) < BRACKET_MARGIN * abs(e_cf):
            yield item, "bracket_margin"
        else:
            yield item, None


def spectra_deep_share(table) -> float:
    """Share of deep levels among the kept levels of the whole grid."""
    kept = [abs(item["ref"]["E_cf"]) >= SPECTRA_DEEP_E
            for dim in ref.DIMS for l in ref.LS for alpha in ref.ALPHAS
            for item, reason in _spectra_levels(table, dim, l, alpha) if reason is None]
    return sum(kept) / len(kept)


def _spectra(rng, table):
    excluded = {"unbound": 0, "bracket": 0, "bracket_margin": 0}
    anchors = []
    for dim, l, alpha, n in SPECTRA_ANCHORS:
        item = _spectra_item(table, dim, l, alpha, n)
        item["kept"] = "BracketError: exact level outside closed form +/- 20%"
        anchors.append(item)
    size = ROUND_SIZE["spectra"]
    k = round(size * spectra_deep_share(table))
    deep, shallow = [], []
    while len(deep) < k * ROUNDS["spectra"] or len(shallow) < (size - k) * ROUNDS["spectra"]:
        dim = rng.choice(ref.DIMS)
        l = rng.choice(ref.LS)
        alpha = rng.choice(ref.ALPHAS)
        for item, reason in _spectra_levels(table, dim, l, alpha):
            if reason:
                excluded[reason] += 1
            else:
                (deep if abs(item["ref"]["E_cf"]) >= SPECTRA_DEEP_E else shallow).append(item)
    rounds = []
    for i in range(ROUNDS["spectra"]):
        rnd = deep[i * k:(i + 1) * k] + shallow[i * (size - k):(i + 1) * (size - k)]
        rng.shuffle(rnd)
        rounds.append(rnd + anchors)
    return {"rounds": rounds, "excluded": excluded}


def _census(rng, table):
    size = ROUND_SIZE["census"]
    excluded = {"undercount": 0}
    rounds = []
    for _ in range(ROUNDS["census"]):
        rnd = []
        while len(rnd) < size:
            dim = rng.choice(ref.DIMS)
            l = rng.choice(ref.LS)
            alpha = rng.choice(ref.ALPHAS)
            if (ref.gamma_coeff(dim, l), alpha) in CENSUS_UNDERCOUNT:
                excluded["undercount"] += 1
                continue
            count = len(exact_levels(table, dim, l, alpha))
            rnd.append({"D": dim, "l": l, "alpha": alpha, "ref": {"count": count}})
        rounds.append(rnd)
    return {"rounds": rounds, "excluded": excluded}


def _reports_level(rng, n):
    """(Z, mu, hbar, alpha, D, n, l) with delta = f m^2, f in [1.5, 6]."""
    while True:
        dim = rng.randint(1, 5)
        l = rng.randint(0, 2)
        m = n + l + (dim - 1) / 2.0
        if m > 0.0:
            break
    Z = round(rng.uniform(0.5, 2.5), 4)
    mu = round(rng.uniform(0.5, 2.0), 4)
    hbar = round(rng.uniform(0.6, 1.5), 4)
    f = rng.uniform(1.5, 6.0)
    alpha = round(2.0 * Z * mu / (hbar**2 * f * m * m), 6)
    return {"Z": Z, "mu": mu, "hbar": hbar, "alpha": alpha, "D": dim, "n": n, "l": l}


def _reports(rng, table):
    kept = [{"Z": 1.0, "mu": 1.0, "hbar": 1.0, "alpha": 1e-3, "D": 3, "n": n, "l": 0,
             "kept": "normalization double sum loses precision at high n"}
            for n in REPORTS_KEPT]
    ns = [i % (REPORTS_N_MAX + 1) for i in range(ROUND_SIZE["reports"])]
    rounds = []
    for _ in range(ROUNDS["reports"]):
        rnd = [_reports_level(rng, n) for n in ns]
        rng.shuffle(rnd)
        rounds.append(rnd + [dict(k) for k in kept])
    return {"rounds": rounds, "excluded": {}}


def _cli_argv(rng, slot, excluded):
    sub, fmt, points = slot
    while True:
        dim = rng.randint(1, 5)
        l = rng.randint(0, 2)
        alpha = round(rng.uniform(0.01, 0.3), 4)
        levels = ref.closed_form_levels(1.0, alpha, 1.0, 1.0, dim, l)
        if sub != "spectrum":
            deep = [n for n in levels
                    if ref.closed_form_epsilon(1.0, alpha, 1.0, 1.0, dim, n, l)
                    >= CLI_MIN_EPSILON]
            excluded["tail_underflow"] += len(levels) - len(deep)
            levels = deep
        if levels:
            break
    argv = [sub, "--dim", str(dim), "--l", str(l), "--alpha", repr(alpha)]
    if sub != "spectrum":
        argv += ["--n", str(rng.choice(levels))]
    if points:
        argv += ["--points", str(points)]
    return {"argv": argv + ["--format", fmt], "out": None}


def _cli(rng, table):
    """Every round runs the same CLI_SLOTS in seeded order, CLI_OUT of them
    with --out, so the cost mix is the same whatever the seed."""
    excluded = {"tail_underflow": 0}
    rounds = []
    for r in range(ROUNDS["cli"]):
        slots = list(CLI_SLOTS)
        rng.shuffle(slots)
        rnd = [_cli_argv(rng, slot, excluded) for slot in slots]
        for i in rng.sample(range(len(rnd)), CLI_OUT):
            rnd[i]["out"] = f"out-{r * len(rnd) + i}.{rnd[i]['argv'][-1]}"
        rounds.append(rnd)
    return {"rounds": rounds, "excluded": excluded}


_GENERATORS = {"spectra": _spectra, "census": _census, "reports": _reports, "cli": _cli}

"""The full-stack benchmark's arithmetic: percentiles that carry their
sample count, the event-kind -> layer map, and host time per fetch.

Kept apart from run.py so that test_arith.py can check it without a build.
"""

# Event-kind name prefix -> layer metric; the longest matching prefix wins.
# A kind no prefix matches is charged to OTHER, so a non-zero OTHER means
# the program grew an event kind this map needs a row for.
LAYER_OF_PREFIX = (
    ("net.datagram.deliver", "net.deliver_us_per_fetch"),  # includes the receiver's decode
    ("net.", "net.tcp_us_per_fetch"),
    ("wan.dns.", "dns.servers_us_per_fetch"),
    ("edge.", "http.servers_us_per_fetch"),
    ("origin.", "http.servers_us_per_fetch"),
    ("ap.dns.", "core.ap_dns_us_per_fetch"),
    ("ap.http.", "core.ap_http_us_per_fetch"),
    ("ap.cache.", "core.ap_http_us_per_fetch"),
    ("client.", "core.client_us_per_fetch"),
    ("ap.dir.", "fleet.directory_us_per_fetch"),
    ("controller.dir.", "fleet.directory_us_per_fetch"),
)
DISPATCH = "sim.dispatch_us_per_fetch"
PACM = "core.pacm_us_per_fetch"
TCP = "net.tcp_us_per_fetch"
OTHER = "other_us_per_fetch"
# PACM solves run synchronously inside the delegated fetch's response.
PACM_HOST_KIND = "net.tcp.response"

HOST_LAYERS = (DISPATCH,) + tuple(dict.fromkeys(layer for _, layer in LAYER_OF_PREFIX)) + (
    PACM, OTHER)


def layer_of(kind):
    best = None
    for prefix, layer in LAYER_OF_PREFIX:
        if kind.startswith(prefix) and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return OTHER if best is None else best[1]


def percentile(samples, pct):
    """Exact order statistic of `samples` at `pct` percent, linearly
    interpolated, returned as (value, n).  value is None unless at least
    ten samples lie beyond it, i.e. n * (100 - pct) / 100 >= 10: a p50
    needs 20 samples and a p99 needs 1000."""
    n = len(samples)
    if n == 0 or n * (100 - pct) < 1000:
        return None, n
    ordered = sorted(samples)
    pos = pct / 100 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), n


def ratio(num, den):
    return num / den if den else 0.0


def fetch_failures(attempted, answered, failed_answers):
    """Failed fetches: those never answered plus answers that reported
    failure."""
    return (attempted - answered) + failed_answers


def host_layers_us(kind_wall_ns, solve_us, run_wall_s):
    """Splits a traced run's wall time (inside run_until) over HOST_LAYERS,
    in microseconds.  Callback time goes to its kind's layer; PACM solve
    time is moved out of PACM_HOST_KIND; the scheduler gets the residual.
    Returns (layers, problems), problems naming each broken invariant."""
    layers = dict.fromkeys(HOST_LAYERS, 0.0)
    callbacks_us = 0.0
    for kind, ns in kind_wall_ns.items():
        layers[layer_of(kind)] += ns / 1e3
        callbacks_us += ns / 1e3
    host_kind_us = kind_wall_ns.get(PACM_HOST_KIND, 0) / 1e3
    layers[TCP] -= solve_us
    layers[PACM] = solve_us
    layers[DISPATCH] = run_wall_s * 1e6 - callbacks_us
    problems = []
    if layers[DISPATCH] < 0:
        problems.append(f"callbacks ({callbacks_us:.0f} us) exceed the run's wall "
                        f"({run_wall_s * 1e6:.0f} us)")
    if solve_us > host_kind_us:
        problems.append(f"PACM solves ({solve_us:.0f} us) exceed {PACM_HOST_KIND} "
                        f"({host_kind_us:.0f} us)")
    return layers, problems


def per_fetch(layers_us, fetches):
    """Host microseconds per completed fetch; the values sum to the traced
    wall divided by fetches."""
    return {name: ratio(us, fetches) for name, us in layers_us.items()}

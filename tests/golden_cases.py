"""The golden-digest corpus: what ``tests/golden.json`` pins and how.

``tests/golden.json`` holds one sha256 (:func:`tests.support.
golden_digest`) per experiment id — over its quick-mode ``text`` and
``data`` — and per fixed-grid case below, plus the engine event count
of the empty-plan chaos run.  The corpus is the determinism oracle:
a change that alters any simulated outcome changes a digest.  When an
outcome is *meant* to change, regenerate it with
``python scripts/gen_golden.py`` and say why in the commit.

The corpus records the Python ``major.minor`` it was generated under.
Float results can move in the last bit between interpreter versions
(3.12 made built-in ``sum`` compensated), so :func:`golden` skips the
digest comparison under any other version; the checks that compare two
runs with each other need no corpus and run everywhere.

Fixed-grid cases (each a small deterministic DES run):

* ``nttcp/...``: back-to-back transfers over MTU x write count;
* ``losstap/...``: a transfer through a :class:`~repro.chaos.LossTap`
  dropping fixed frame indices (segment trains split at the drops);
* ``chaos/seed...``: seeded loss/reorder fault plans;
* ``chaos/empty_plan``: the empty plan, whose outcome *and* engine
  event count must equal a run with chaos off;
* ``wan/des``: a short transfer over the Sunnyvale-Geneva POS path
  with a 64-frame bottleneck queue, so the routers queue frames.
"""

import json
import pathlib
import sys

from repro.analysis.experiments import run_experiment
from repro.cache import cache_context
from repro.chaos import FaultPlan, FaultSpec, LossTap, chaos_session
from repro.config import TuningConfig
from repro.net.topology import BackToBack, build_wan_path
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import nttcp_run
from tests.support import golden_digest

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden.json"

#: Experiments that take multiple seconds each even in quick mode; their
#: digests are checked only when ``REPRO_PARITY_FULL=1``.
HEAVY = {"anecdotal", "fig3", "fig4", "fig5", "opt_steps", "wan"}

NTTCP_MTUS = (1500, 8160, 9000, 16000)
NTTCP_COUNTS = (4, 17, 48)
LOSS_DROPS = ((), (0,), (2, 5), (1, 2, 3, 11))
#: (seed, loss probability, window start in 25 us steps)
CHAOS_PLANS = ((0, 1.0, 0), (1, 0.5, 2), (7, 0.25, 4), (42, 0.5, 1),
               (1234, 1.0, 3), (4294967295, 0.25, 8))
CHAOS_MTU = 9000
CHAOS_COUNT = 16


def load_golden():
    """The committed corpus as a dict."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def interpreter():
    """The running Python's ``major.minor``, as the corpus records it."""
    return "%d.%d" % sys.version_info[:2]


def golden(section, name):
    """The committed value ``corpus[section][name]``.

    Skips the calling test when the corpus was generated under another
    Python version, whose float results may differ in the last bit."""
    corpus = load_golden()
    if corpus["python"] != interpreter():
        import pytest
        pytest.skip(f"tests/golden.json was generated under Python "
                    f"{corpus['python']}, not {interpreter()}; its digests "
                    f"are checked only there")
    return corpus[section][name]


def experiment_digest(name):
    """Digest of one experiment's quick, serial, uncached output."""
    with cache_context(False):
        out = run_experiment(name, quick=True, jobs=1)
    return golden_digest(out.text, out.data)


def _endpoint_state(env, conn, result):
    """Outcome of one transfer: the measurement plus the model state
    it left behind (final clock, TCP counters, congestion window)."""
    tx, rx = conn.sender, conn.receiver
    return (result, env.now,
            (tx.segments_sent, tx.retransmitted, tx.acks_received,
             tx.cwnd.cwnd_segments, tx.srtt_s, tx.snd_una),
            (rx.segments_received, rx.duplicates, rx.acks_sent,
             rx.window_updates, rx.bytes_delivered, rx.rcv_nxt))


def nttcp_case(mtu, count):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(mtu))
    conn = TcpConnection(env, bb.a, bb.b)
    result = nttcp_run(env, conn, payload=conn.mss, count=count)
    return _endpoint_state(env, conn, result), env.events_scheduled


def losstap_case(drops):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    tap = LossTap(env, bb.links[0], set(drops))
    result = nttcp_run(env, conn, payload=conn.mss, count=24)
    return ((_endpoint_state(env, conn, result), sorted(tap.drops),
             len(tap.dropped)), env.events_scheduled)


def chaos_plan(seed, probability, start_step):
    start_s = start_step * 2.5e-5
    return FaultPlan(name="prop", seed=seed, faults=(
        FaultSpec(kind="loss_burst", target="link:xover.fwd",
                  start_s=start_s, duration_s=1e-4,
                  probability=probability),
        FaultSpec(kind="reorder_window", target="link:xover.rev",
                  start_s=start_s, duration_s=5e-5, delay_s=4e-5,
                  probability=0.5, kinds=("ack",)),
    ))


def chaos_transfer(plan):
    """One transfer under ``plan`` (``None``: chaos off entirely).

    Returns ``(outcome, events_scheduled)``; the outcome includes the
    injector's per-fault summary when the plan armed one."""
    def run():
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(CHAOS_MTU))
        conn = TcpConnection(env, bb.a, bb.b)
        result = nttcp_run(env, conn, payload=conn.mss, count=CHAOS_COUNT)
        return env, conn, result

    if plan is None:
        env, conn, result = run()
        return _endpoint_state(env, conn, result), env.events_scheduled
    with chaos_session(plan) as session:
        env, conn, result = run()
        injector = session.injector_for(env)
        rows = tuple(
            (row["kind"], tuple(row["matched"]), row["fired"],
             row["recovered"], row["frames"], row["drops"], row["holds"],
             row["dups"], row["corrupts"])
            for row in injector.summary()) if injector else ()
    return (_endpoint_state(env, conn, result), rows), env.events_scheduled


def wan_case():
    env = Environment()
    bed = build_wan_path(env, TuningConfig.wan_tuned(buf=4 * 1024 * 1024),
                         bottleneck_queue_frames=64)
    conn = TcpConnection(env, bed.sunnyvale, bed.geneva)
    result = nttcp_run(env, conn, payload=conn.mss, count=256)
    routers = [bed.forward.ingress_router, bed.forward.bottleneck_router,
               bed.reverse.ingress_router, bed.reverse.bottleneck_router]
    return ((_endpoint_state(env, conn, result),
             [(r.forwarded.total, r.drops.total) for r in routers]),
            env.events_scheduled)


def _key(values):
    return "-".join(str(v) for v in values) or "none"


def cases():
    """``{case name: thunk}`` for every fixed-grid case (experiments
    excluded); each thunk runs the case and returns ``(value,
    events_scheduled)``: the value its digest is taken over and the
    engine's event count."""
    table = {}
    for mtu in NTTCP_MTUS:
        for count in NTTCP_COUNTS:
            table[f"nttcp/mtu{mtu}-count{count}"] = (
                lambda m=mtu, c=count: nttcp_case(m, c))
    for drops in LOSS_DROPS:
        table[f"losstap/{_key(drops)}"] = lambda d=drops: losstap_case(d)
    for seed, probability, start in CHAOS_PLANS:
        plan = chaos_plan(seed, probability, start)
        table[f"chaos/seed{seed}"] = lambda p=plan: chaos_transfer(p)
    table["chaos/empty_plan"] = lambda: chaos_transfer(FaultPlan())
    table["wan/des"] = wan_case
    return table


def case_names(prefix):
    """Names of the fixed-grid cases starting with ``prefix``."""
    return [name for name in cases() if name.startswith(prefix)]


def case_digest(name):
    """Digest of one fixed-grid case, run now."""
    return golden_digest(cases()[name]()[0])


def event_counts():
    """``{name: thunk}`` for the pinned engine event counts."""
    return {"chaos/empty_plan": lambda: chaos_transfer(FaultPlan())[1]}

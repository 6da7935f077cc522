"""Tests for selective acknowledgments (RFC 2018)."""

import pytest

from repro.config import TuningConfig
from repro.chaos import LossTap
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection


def run_lossy(sack: bool, drops, segments=64, payload=8948):
    env = Environment()
    cfg = TuningConfig.oversized_windows(9000).replace(sack=sack)
    bb = BackToBack.create(env, cfg)
    conn = TcpConnection(env, bb.a, bb.b)
    LossTap(env, bb.links[0], drops)
    total = payload * segments

    def app():
        yield from conn.send_stream(payload, segments)
        yield from conn.wait_delivered(total, poll_s=1e-3)

    done = env.process(app())
    env.run(until=done)
    return env.now, conn


def test_sack_blocks_reported_on_ooo():
    env = Environment()
    cfg = TuningConfig.oversized_windows(9000).replace(sack=True)
    bb = BackToBack.create(env, cfg)
    conn = TcpConnection(env, bb.a, bb.b)
    from repro.tools.tcpdump import Tcpdump
    dump = Tcpdump(env, bb.links[1])
    LossTap(env, bb.links[0], {10})
    total = 8948 * 48

    def app():
        yield from conn.send_stream(8948, 48)
        yield from conn.wait_delivered(total, poll_s=1e-3)

    env.run(until=env.process(app()))
    sacked_acks = [r for r in dump.records
                   if r.kind == "ack"]
    assert conn.receiver.bytes_delivered == total
    # at least one ACK during the episode carried meaningful state: the
    # hole was eventually filled exactly once
    assert conn.sender.retransmitted >= 1


def test_sack_avoids_spurious_retransmissions_multi_loss():
    """With several losses in one window, NewReno retransmits one hole
    per RTT and may resend delivered data after an RTO; SACK retransmits
    only the actual holes."""
    drops = {8, 16, 24, 32}
    _, newreno = run_lossy(sack=False, drops=drops)
    _, sack = run_lossy(sack=True, drops=drops)
    assert sack.receiver.bytes_delivered == newreno.receiver.bytes_delivered
    assert sack.sender.retransmitted <= newreno.sender.retransmitted
    # SACK never re-sends data the receiver already holds
    assert sack.receiver.duplicates <= newreno.receiver.duplicates


def test_sack_completes_no_slower():
    drops = {8, 16, 24, 32}
    t_newreno, _ = run_lossy(sack=False, drops=drops)
    t_sack, _ = run_lossy(sack=True, drops=drops)
    assert t_sack <= t_newreno * 1.05


def test_sack_no_ooo_no_blocks():
    """Lossless run: SACK on changes nothing observable."""
    _, with_sack = run_lossy(sack=True, drops=set())
    _, without = run_lossy(sack=False, drops=set())
    assert with_sack.sender.retransmitted == 0
    assert with_sack.receiver.bytes_delivered == \
        without.receiver.bytes_delivered


def test_sack_block_merging():
    from repro.tcp.receiver import TcpReceiver
    from repro.oskernel.skbuff import SkBuff

    env = Environment()
    cfg = TuningConfig.oversized_windows(9000).replace(sack=True)
    bb = BackToBack.create(env, cfg)
    conn = TcpConnection(env, bb.a, bb.b)
    rx = conn.receiver
    # hand-craft an out-of-order queue: two contiguous + one separate
    for seq in (10000, 11000, 20000):
        rx._ooo[seq] = SkBuff(payload=1000, headers=52, seq=seq,
                              end_seq=seq + 1000)
    blocks = rx._sack_blocks()
    assert (10000, 12000) in blocks
    assert (20000, 21000) in blocks
    assert len(blocks) == 2

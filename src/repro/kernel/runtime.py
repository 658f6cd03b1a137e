"""Flat event loop for compiled programs (the fast half of ``repro.kernel``).

When a run needs none of the engine's fault, timeout, trace, MEASURED
or checkpoint machinery, the generated ``fast_gen`` per-rank state
machines can be driven by a much flatter scheduler than the general
heap-of-actions engine:

* the priority queue holds **distinct timestamps only**; all events at
  one virtual time live in a FIFO bucket list, so the heap shrinks by
  the (large) same-time fan-out factor and each event is one integer,
  not a tuple;
* events are encoded as ``rank * 4 + kind`` integers (0 = resume with
  the bucket time, 1 = process the rank's pending comm op, 2 = resume
  with a payload — a handle id or collective result);
* matching, rendezvous, waits and world collectives are inlined over
  plain lists, mirroring :class:`repro.sim.engine.Simulator`'s handlers
  line for line so every float accumulates in the same order.

Each bucket entry is one engine heap event, so the features campaigns
switch on run inside the same loop as checks at bucket boundaries, set
up once per bucket and never per entry when disarmed:

* watchdog budgets — ``max_events`` caps the bucket's iteration at the
  engine's tripping event, ``max_virtual_time`` trips when a bucket past
  the limit is popped (the engine trips on that bucket's first event),
  the wall clock is read once per bucket;
* :data:`~repro.sim.heartbeat.HEARTBEAT` ticks with the running count;
* :data:`~repro.sim.flightrec.FLIGHT` records every entry, in the
  engine's ``(t, rank, kind)`` order, through a wrapping iterator.

The produced :class:`~repro.sim.engine.SimResult` — stats, memory
report, deadlock diagnosis, budget partial stats and flight dumps — is
byte-identical to the interpreted engine's by construction; the
differential fuzz harness holds it to that.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from inspect import getgeneratorlocals
from itertools import islice

from ..mpi.matching import ANY_SOURCE, ANY_TAG
from ..sim.faults import DeadlockReport, WaitInfo
from ..sim.flightrec import FLIGHT, deadlock_report_to_dict
from ..sim.heartbeat import HEARTBEAT
from ..sim.stats import ProcessStats, SimStats

__all__ = ["run_fast"]

_REDUCE_FNS = {"sum": lambda a, b: a + b, "max": max, "min": min}


def run_fast(sim):
    """Run *sim* (a ``Simulator`` with a resolved compiled kernel) flat out."""
    from ..sim.engine import (  # local import: engine imports this module lazily
        CollectiveMismatchError,
        DeadlockError,
        SimResult,
        collective_results,
    )

    kernel = sim._kernel
    inputs, wparams = sim._kernel_args
    nprocs = sim.nprocs
    net = sim.net
    send_overhead = net.send_overhead
    transit_time = net.transit_time
    collective_time = net.collective_time
    ov_cache = sim._ov_cache
    tr_cache = sim._tr_cache
    net_flat = sim._net_flat
    EVOH = sim._event_overhead
    MHB = sim._msg_host_base
    MHPB = sim._msg_host_per_byte
    EAGER = sim._eager_limit
    allocate = sim.memory.allocate
    free = sim.memory.free
    budget = sim._budget
    ring, seen = FLIGHT.ring() if FLIGHT.enabled else (None, None)
    hb = HEARTBEAT if HEARTBEAT.enabled else None
    # per-bucket feature checks; a bare run skips them with one test
    guarded = budget is not None or ring is not None or hb is not None
    max_events = max_vt = max_wall = None
    if budget is not None:
        max_events = budget.max_events
        max_vt = budget.max_virtual_time
        max_wall = budget.max_wall_seconds
        wall_start = budget.start()
    if ring is not None:
        FLIGHT.note(mode=sim.mode.value, nprocs=nprocs, seed=sim.seed)

    # rank-shared stat cells the generated code flushes into around each
    # yield: [clock, events, compute_time, comm_time, host_cost].  Indexes
    # 0/1/2 are generator-owned, 3 runtime-owned, 4 shared (reloaded after
    # every yield) — this keeps host-cost accumulation in the engine's
    # exact floating-point order.
    st = [[0.0, 0, 0.0, 0.0, 0.0] for _ in range(nprocs)]
    rt = (
        sim._task_time,
        sim._compute_host_factor,
        EVOH,
        sim._delay_host_cost,
        sim.cpu.timer_cost(),
    )
    fast_gen = kernel.fast_gen
    gens = []
    steps = []
    for r in range(nprocs):
        g = fast_gen(r, nprocs, inputs, wparams, rt, st[r])
        gens.append(g)
        steps.append(g.send)

    finish = [0.0] * nprocs
    msent = [0] * nprocs
    mrecv = [0] * nprocs
    bsent = [0] * nprocs
    ncoll = [0] * nprocs
    done = [False] * nprocs
    blocked = [None] * nprocs
    pend = [None] * nprocs
    rv = [None] * nprocs  # payload of the rank's (single) scheduled resume
    handles = [dict() for _ in range(nprocs)]  # hid -> [done, ready_time]
    next_hid = [0] * nprocs
    waiting = [None] * nprocs
    wait_time = [0.0] * nprocs
    # q_msgs[dst]: [seq, source, tag, nbytes, eager, send_time, ready, sender_handle]
    q_msgs = [[] for _ in range(nprocs)]
    # q_recvs[rank]: [seq, source, tag, post_time, handle_or_None]
    q_recvs = [[] for _ in range(nprocs)]
    colls: dict[int, list] = {}  # call index -> [op, root, nbytes, arrivals, reduce_fn]
    coll_index = [0] * nprocs
    mseq = 0

    timeheap: list[float] = []
    buckets: dict[float, list[int]] = {}
    bget = buckets.get

    def push(at: float, code: int) -> None:
        b = bget(at)
        if b is None:
            buckets[at] = [code]
            heappush(timeheap, at)
        else:
            b.append(code)

    # the flat state a budget trip snapshots (one bundle: no closure
    # cells on the hot lists)
    flat = (sim, st, done, finish, gens, msent, mrecv, bsent, ncoll)

    # Prime every generator (engine: one initial resume per rank at t=0,
    # rank order; each comm event lands at the yielding rank's clock —
    # the generator advances it inline through compute/delay).
    primed = nprocs if max_events is None else min(nprocs, max_events)
    for rank in range(primed):
        if guarded:
            if max_wall is not None:
                wall = time.perf_counter() - wall_start
                if wall > max_wall:
                    raise _exceeded(flat, rank + 1, "wall_time", max_wall, wall, 0.0)
            if ring is not None:
                ring((0.0, rank, "resume"))
                seen[0] += 1
        value = None
        step = steps[rank]
        while True:
            try:
                op = step(value)
            except StopIteration:
                done[rank] = True
                finish[rank] = st[rank][0]
                break
            if op[0] != 7:
                pend[rank] = op
                blocked[rank] = op[0]
                push(op[1], rank * 4 + 1)
                break
            allocate(rank, op[2], op[3])
            value = op[1]
    events = primed  # entries processed (the engine's heap pops); guarded runs only
    if primed < nprocs:
        raise _exceeded(flat, events + 1, "events", max_events, events + 1, 0.0)
    if hb is not None and events >= hb.next_events:
        hb.tick(events, 0.0)

    def complete_handle(rank: int, hid: int, ready_time: float) -> None:
        hs = handles[rank]
        h = hs[hid]
        h[0] = True
        h[1] = ready_time
        w = waiting[rank]
        if w is not None and all(hs[x][0] for x in w):
            release_wait(rank)

    def release_wait(rank: int) -> None:
        hids = waiting[rank]
        waiting[rank] = None
        hs = handles[rank]
        pop = hs.pop
        resume_at = wait_time[rank]
        for h in hids:
            rt_ = pop(h)[1]
            if rt_ > resume_at:
                resume_at = rt_
        blocked_for = resume_at - wait_time[rank]
        if blocked_for > 0:
            st[rank][3] += blocked_for
        push(resume_at, rank * 4)

    def complete_recv(posted: list, prank: int, msg: list) -> None:
        nbytes = msg[3]
        overhead = ov_cache.get(nbytes)
        if overhead is None:
            overhead = net.recv_overhead(nbytes)
            ov_cache[nbytes] = overhead
        post_time = posted[3]
        ready = msg[6]
        completion = (post_time if post_time > ready else ready) + overhead
        mrecv[prank] += 1
        st[prank][4] += MHB + nbytes * MHPB
        if posted[4] is not None:
            complete_handle(prank, posted[4], completion)
        else:
            st[prank][3] += completion - post_time
            push(completion, prank * 4)

    def finish_rendezvous(msg: list, posted: list, prank: int) -> None:
        src = msg[1]
        transfer_start = msg[5] if msg[5] > posted[3] else posted[3]
        msg[6] = transfer_start + transit_time(msg[3], src, prank, nprocs)
        if msg[7] is not None:
            complete_handle(src, msg[7], transfer_start)
        else:
            waited = transfer_start - msg[5]
            if waited > 0:
                st[src][3] += waited
            push(transfer_start, src * 4)
        complete_recv(posted, prank, msg)

    while timeheap:
        t = heappop(timeheap)
        # the bucket stays live in the dict while draining: same-time
        # events pushed mid-drain append to this very list, and Python's
        # list iterator observes appends — exactly the engine's FIFO
        # order among equal timestamps
        bucket = buckets[t]
        entries = bucket
        if guarded:
            if hb is not None and events >= hb.next_events:
                hb.tick(events, t)
            if budget is not None:
                # the engine's note_event order: events, virtual time, wall
                if max_events is not None and events >= max_events:
                    raise _exceeded(flat, events + 1, "events", max_events, events + 1, t)
                if max_vt is not None and t > max_vt:
                    raise _exceeded(flat, events + 1, "virtual_time", max_vt, t, t)
                if max_wall is not None:
                    wall = time.perf_counter() - wall_start
                    if wall > max_wall:
                        raise _exceeded(flat, events + 1, "wall_time", max_wall, wall, t)
            if ring is not None:
                entries = _recorded(bucket, t, ring, seen, pend)
            if max_events is not None:
                entries = islice(entries, max_events - events)
        for code in entries:
            rank = code >> 2
            kind = code & 3
            if kind != 1:
                # resume: run the rank's generator until its next comm yield
                if kind == 0:
                    value = t
                else:
                    value = (t, rv[rank])
                step = steps[rank]
                while True:
                    try:
                        op = step(value)
                    except StopIteration:
                        done[rank] = True
                        finish[rank] = st[rank][0]
                        break
                    if op[0] != 7:
                        pend[rank] = op
                        blocked[rank] = op[0]
                        at = op[1]
                        b = bget(at)
                        if b is None:
                            buckets[at] = [rank * 4 + 1]
                            heappush(timeheap, at)
                        else:
                            b.append(rank * 4 + 1)
                        break
                    # Alloc: handled inline, like the engine's _resume
                    allocate(rank, op[2], op[3])
                    value = op[1]
                continue
            # communication event at time t
            op = pend[rank]
            o = op[0]
            if o == 1 or o == 3:  # send / isend
                dest = op[2]
                nbytes = op[3]
                tag = op[4]
                if dest >= nprocs:
                    raise ValueError(
                        f"rank {rank} sends to nonexistent rank {dest} "
                        f"(world size {nprocs})"
                    )
                overhead = ov_cache.get(nbytes)
                if overhead is None:
                    overhead = send_overhead(nbytes)
                    ov_cache[nbytes] = overhead
                cost = MHB + nbytes * MHPB
                mseq += 1
                seq = mseq
                t_inject = t + overhead
                srow = st[rank]
                srow[3] += overhead
                srow[4] += cost
                msent[rank] += 1
                bsent[rank] += nbytes
                eager = nbytes <= EAGER
                if eager:
                    key = nbytes if net_flat else (nbytes, rank, dest)
                    transit = tr_cache.get(key)
                    if transit is None:
                        transit = transit_time(nbytes, rank, dest, nprocs)
                        tr_cache[key] = transit
                    ready = t_inject + transit
                else:
                    ready = None
                if o == 3:
                    next_hid[rank] += 1
                    hid = next_hid[rank]
                    handles[rank][hid] = [False, 0.0]
                else:
                    hid = None
                msg = [seq, rank, tag, nbytes, eager, t_inject, ready, hid]
                # matching: first posted recv in list order that accepts it
                matched = None
                rq = q_recvs[dest]
                if rq:
                    for j, pr in enumerate(rq):
                        pso = pr[1]
                        if (pso == ANY_SOURCE or pso == rank) and (
                            pr[2] == ANY_TAG or pr[2] == tag
                        ):
                            matched = rq.pop(j)
                            break
                if matched is None:
                    q_msgs[dest].append(msg)
                if eager:
                    if hid is not None:
                        h = handles[rank][hid]
                        h[0] = True
                        h[1] = t_inject
                    b = bget(t_inject)
                    if b is None:
                        buckets[t_inject] = [rank * 4]
                        heappush(timeheap, t_inject)
                    else:
                        b.append(rank * 4)
                    if matched is not None:
                        # inline complete_recv (hot path: matched eager send)
                        post_time = matched[3]
                        completion = (post_time if post_time > ready else ready) + overhead
                        mrecv[dest] += 1
                        drow = st[dest]
                        drow[4] += cost
                        if matched[4] is not None:
                            complete_handle(dest, matched[4], completion)
                        else:
                            drow[3] += completion - post_time
                            b = bget(completion)
                            if b is None:
                                buckets[completion] = [dest * 4]
                                heappush(timeheap, completion)
                            else:
                                b.append(dest * 4)
                else:
                    if hid is not None:
                        push(t_inject, rank * 4)
                    if matched is not None:
                        finish_rendezvous(msg, matched, dest)
            elif o == 2 or o == 4:  # recv / irecv
                source = op[2]
                tag = op[3]
                if source >= nprocs:
                    raise ValueError(
                        f"rank {rank} receives from nonexistent rank {source} "
                        f"(world size {nprocs})"
                    )
                mseq += 1
                if o == 4:
                    next_hid[rank] += 1
                    hid = next_hid[rank]
                    handles[rank][hid] = [False, 0.0]
                else:
                    hid = None
                posted = [mseq, source, tag, t, hid]
                # matching: lowest-seq queued message that this recv accepts
                msg = None
                mq = q_msgs[rank]
                if mq:
                    best = -1
                    bseq = 0
                    for j, m in enumerate(mq):
                        if (source == ANY_SOURCE or source == m[1]) and (
                            tag == ANY_TAG or tag == m[2]
                        ):
                            if best < 0 or m[0] < bseq:
                                best = j
                                bseq = m[0]
                    if best >= 0:
                        msg = mq.pop(best)
                if msg is None:
                    q_recvs[rank].append(posted)
                if hid is not None:
                    # handle resume lands at this very timestamp: the
                    # live bucket is buckets[t], append directly
                    bucket.append(rank * 4)
                if msg is None:
                    continue
                if msg[4]:
                    # inline complete_recv (hot path: recv matches queued eager)
                    nbytes = msg[3]
                    overhead = ov_cache.get(nbytes)
                    if overhead is None:
                        overhead = net.recv_overhead(nbytes)
                        ov_cache[nbytes] = overhead
                    ready = msg[6]
                    completion = (t if t > ready else ready) + overhead
                    mrecv[rank] += 1
                    rrow = st[rank]
                    rrow[4] += MHB + nbytes * MHPB
                    if hid is not None:
                        complete_handle(rank, hid, completion)
                    else:
                        rrow[3] += completion - t
                        b = bget(completion)
                        if b is None:
                            buckets[completion] = [rank * 4]
                            heappush(timeheap, completion)
                        else:
                            b.append(rank * 4)
                else:
                    finish_rendezvous(msg, posted, rank)
            elif o == 5:  # waitall
                st[rank][4] += EVOH
                hs = handles[rank]
                for hid in op[2]:
                    if hid not in hs:
                        raise ValueError(
                            f"rank {rank} waits on unknown or already-completed "
                            f"handle {hid}"
                        )
                waiting[rank] = op[2]  # the generator never reuses the list
                wait_time[rank] = t
                if all(hs[h][0] for h in op[2]):
                    release_wait(rank)
            else:  # o == 6: collective (world only: IR never forms groups)
                cop = op[2]
                nbytes = op[3]
                root = op[4]
                data = op[5]
                rkind = op[6]
                if root >= nprocs:
                    raise ValueError(
                        f"rank {rank} issued {cop!r} with root {root} "
                        f"but the world has {nprocs} ranks"
                    )
                seq = coll_index[rank]
                coll_index[rank] = seq + 1
                state = colls.get(seq)
                if state is None:
                    state = colls[seq] = [cop, root, 0, {}, None]
                elif state[0] != cop or state[1] != root:
                    raise CollectiveMismatchError(
                        f"collective #{(None, seq)}: rank {rank} called {cop!r} "
                        f"(root {root}) but others called {state[0]!r} "
                        f"(root {state[1]})"
                    )
                arrivals = state[3]
                if rank in arrivals:
                    raise CollectiveMismatchError(
                        f"rank {rank} issued collective #{(None, seq)} twice"
                    )
                arrivals[rank] = (t, data)
                if nbytes > state[2]:
                    state[2] = nbytes
                if rkind is not None:
                    state[4] = _REDUCE_FNS[rkind]
                if len(arrivals) < nprocs:
                    continue
                del colls[seq]
                start_max = max(at for at, _ in arrivals.values())
                completion = start_max + collective_time(state[0], state[2], nprocs)
                cop = state[0]
                # uniform-result ops skip the per-rank results dict
                uniform = None
                results = None
                if cop == "allreduce" or cop == "reduce":
                    fn = state[4]
                    acc = None
                    first = True
                    for r in sorted(arrivals):
                        d = arrivals[r][1]
                        if d is None:
                            continue
                        if first:
                            if fn is None:
                                raise CollectiveMismatchError(
                                    f"{cop} with data requires a reduce_fn"
                                )
                            acc = d
                            first = False
                        else:
                            acc = fn(acc, d)
                    if cop == "allreduce":
                        uniform = acc
                    else:
                        results = {
                            r: (acc if r == state[1] else None) for r in arrivals
                        }
                elif cop == "bcast":
                    uniform = arrivals[state[1]][1]
                elif cop != "barrier" and cop != "alltoall":
                    results = collective_results(cop, state[1], arrivals, state[4])
                cost = MHB + state[2] * MHPB
                b = bget(completion)
                if b is None:
                    b = buckets[completion] = []
                    heappush(timeheap, completion)
                append = b.append
                if results is None:
                    for crank, (arrival, _) in arrivals.items():
                        crow = st[crank]
                        crow[3] += completion - arrival
                        crow[4] += cost
                        ncoll[crank] += 1
                        rv[crank] = uniform
                        append(crank * 4 + 2)
                else:
                    for crank, (arrival, _) in arrivals.items():
                        crow = st[crank]
                        crow[3] += completion - arrival
                        crow[4] += cost
                        ncoll[crank] += 1
                        rv[crank] = results[crank]
                        append(crank * 4 + 2)
        if guarded:
            n = len(bucket)
            if max_events is not None and events + n > max_events:
                # the cap stopped short of the event that trips the engine
                events = max_events
                raise _exceeded(flat, events + 1, "events", max_events, events + 1, t)
            events += n
        del buckets[t]

    if budget is not None:
        budget.events = events
    remaining = [r for r in range(nprocs) if not done[r]]
    if remaining:
        report = _deadlock_report(
            nprocs, remaining, blocked, st, q_msgs, q_recvs, colls,
            waiting, wait_time, handles,
        )
        exc = DeadlockError(report.format(), report=report)
        if ring is not None:
            exc.flight = FLIGHT.dump(
                wait_chain=deadlock_report_to_dict(report),
                budget=sim._budget_snapshot(),
                error=report.summary(),
            )
        for r in remaining:
            try:
                gens[r].close()
            except Exception:
                pass  # a raising close() must not mask the deadlock itself
        raise exc
    leftover = [r for r in range(nprocs) if q_msgs[r]]
    if leftover:
        exc = DeadlockError(f"unconsumed messages at ranks {leftover}")
        if ring is not None:
            exc.flight = FLIGHT.dump(budget=sim._budget_snapshot(), error=str(exc))
        raise exc

    procs = []
    for r in range(nprocs):
        row = st[r]
        procs.append(
            ProcessStats(
                rank=r,
                compute_time=row[2],
                comm_time=row[3],
                finish_time=finish[r],
                messages_sent=msent[r],
                messages_received=mrecv[r],
                bytes_sent=bsent[r],
                collectives=ncoll[r],
                events=row[1],
                host_cost=row[4],
            )
        )
    return SimResult(sim.mode, SimStats(procs), sim.memory.report(), sim.trace)


_BLOCKED = {1: "send", 2: "recv", 3: "isend", 4: "irecv", 5: "wait", 6: "collective"}


def _exceeded(flat, counted, kind, limit, observed, t):
    """The engine's :class:`~repro.sim.budget.BudgetExceededError` at event *counted*.

    The engine counts the tripping event before raising, and holds
    per-rank stats flushed up to the previous one; suspended generators
    keep their event count and compute time in locals, read here.
    """
    sim, st, done, finish, gens, msent, mrecv, bsent, ncoll = flat
    procs = []
    for r in range(sim.nprocs):
        row = st[r]
        ev, ct = row[1], row[2]
        if not done[r]:
            local = getgeneratorlocals(gens[r])
            ev, ct = local.get("ev", 0), local.get("ct", 0.0)
        procs.append(ProcessStats(
            rank=r, compute_time=ct, comm_time=row[3], finish_time=finish[r],
            messages_sent=msent[r], messages_received=mrecv[r],
            bytes_sent=bsent[r], collectives=ncoll[r], events=ev, host_cost=row[4],
        ))
    return sim._budget_error(
        kind, float(limit), float(observed), t, counted, SimStats(procs)
    )


def _recorded(bucket: list, t: float, append, seen: list, pend: list):
    """Iterate *bucket*, flight-recording each entry as it is processed.

    A comm entry's kind is its rank's pending op, set when the entry was
    pushed and unchanged until the entry runs.
    """
    for code in bucket:
        rank = code >> 2
        append((t, rank, _BLOCKED[pend[rank][0]] if code & 3 == 1 else "resume"))
        seen[0] += 1
        yield code


def _deadlock_report(
    nprocs, remaining, blocked, st, q_msgs, q_recvs, colls, waiting, wait_time, handles
) -> DeadlockReport:
    """Rebuild the engine's deadlock diagnosis from the flat structures."""
    unmatched_sends = []
    unmatched_recvs = []
    sends_by_src: dict[int, list] = {}
    for dst in range(nprocs):
        for m in q_msgs[dst]:
            unmatched_sends.append((m[1], dst, m[2], m[3], m[5]))
            sends_by_src.setdefault(m[1], []).append((dst, m))
        for r in q_recvs[dst]:
            unmatched_recvs.append((dst, r[1], r[2], r[3]))
    stragglers = []
    coll_waits: dict[int, tuple] = {}
    members = tuple(range(nprocs))
    for _cidx, state in colls.items():
        arrivals = state[3]
        arrived = tuple(sorted(arrivals))
        missing = tuple(r for r in members if r not in arrivals)
        stragglers.append((state[0], state[1], members, arrived, missing))
        for r in arrived:
            coll_waits[r] = (state[0], arrivals[r][0], missing)
    infos = []
    for rank in remaining:
        state_name = _BLOCKED.get(blocked[rank], "unknown")
        since = st[rank][0]
        detail = f"blocked in {state_name}"
        waiting_on: tuple = ()
        if state_name == "recv":
            mine = [r for r in q_recvs[rank] if r[4] is None]
            if mine:
                r = mine[0]
                since = r[3]
                who = "ANY_SOURCE" if r[1] < 0 else str(r[1])
                tag = "ANY_TAG" if r[2] < 0 else str(r[2])
                detail = f"recv(source={who}, tag={tag}) posted at t={r[3]:.6g}"
                if r[1] >= 0:
                    waiting_on = (r[1],)
        elif state_name == "send":
            mine = [(dst, m) for dst, m in sends_by_src.get(rank, ()) if m[7] is None]
            if mine:
                dst, m = mine[0]
                since = m[5]
                detail = (
                    f"send(dest={dst}, tag={m[2]}, nbytes={m[3]}) awaiting a "
                    f"matching recv since t={m[5]:.6g}"
                )
                waiting_on = (dst,)
        elif state_name == "wait":
            hs = handles[rank]
            pending = sorted(h for h in (waiting[rank] or ()) if not hs[h][0])
            parts = []
            on = set()
            for r in q_recvs[rank]:
                if r[4] in pending:
                    who = "ANY_SOURCE" if r[1] < 0 else str(r[1])
                    parts.append(f"irecv(source={who})")
                    if r[1] >= 0:
                        on.add(r[1])
            for dst, m in sends_by_src.get(rank, ()):
                if m[7] in pending:
                    parts.append(f"isend(dest={dst})")
                    on.add(dst)
            since = wait_time[rank]
            what = ", ".join(parts) if parts else f"{len(pending)} pending handle(s)"
            detail = f"wait on {what} since t={wait_time[rank]:.6g}"
            waiting_on = tuple(sorted(on))
        elif state_name == "collective":
            if rank in coll_waits:
                cop, arrival, missing = coll_waits[rank]
                since = arrival
                detail = (
                    f"collective {cop!r} entered at t={arrival:.6g}, "
                    f"missing ranks {list(missing)}"
                )
                waiting_on = missing
        infos.append(
            WaitInfo(
                rank=rank, state=state_name, since=since, detail=detail,
                waiting_on=waiting_on,
            )
        )
    return DeadlockReport(
        nprocs=nprocs,
        blocked=tuple(infos),
        crashed=(),
        unmatched_sends=tuple(unmatched_sends),
        unmatched_recvs=tuple(unmatched_recvs),
        stragglers=tuple(stragglers),
    )

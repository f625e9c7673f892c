"""Vectorized lockstep execution loops over structure-of-arrays state.

These are the batch-call twins of the scalar fast loops
``IpdomExecutor._run_fast`` and ``MinSpPcExecutor._run_fast`` (which
run a no-sink batch only under ``REPRO_VECTOR=0``): the same
schedulers, but each scheduled group executes through one generated
batch function per *group-step* (or per whole basic block) instead of
one handler call per *lane*
(:mod:`repro.engine.vcodegen`), over :class:`repro.engine.lanes.
LaneState` arrays instead of ``ThreadState`` attributes.

Execution grains, coarsest first:

* **superblock chain** (``chains[pc]``): several blocks linked by
  statically known fallthrough/jump/call edges, executed as one call;
  when the full chain's guard fails, the longest entry-depth *prefix*
  whose guard holds runs instead.  A candidate is legal for IPDOM when the region's reconvergence pc neither falls
  strictly inside any covered block nor equals a chained-through
  boundary; for MinSP-PC when the group is alone, or when the chain is
  atomics-free, the spin window is stale, no boost is active and no
  other same-depth group is keyed at or below the chain's highest
  entry-depth pc (every boundary key of the chain then wins the
  min-key selection, so the reference scheduler would run the same
  blocks back to back);
* **whole basic block** (``blocks[pc]``, terminator included).  Always
  legal for IPDOM when the region's reconvergence pc is not strictly
  inside the block (regions move as one unit through straight-line
  code).  For MinSP-PC it is legal when the group is *alone* (no other
  group can preempt it, the spin-escape needs a second group, and boost
  selection needs two groups to differ from min-key), or when the usual
  fused-run guards hold — atomics-free block, atomics window already
  stale, no boost active, and no same-depth group keyed strictly inside
  the block (such a group would merge with or preempt us mid-block; a
  deeper group cannot exist, it would have been selected first, and a
  shallower one never outranks us);
* **ALU-run suffix** (``runs[pc]``) for mid-block entries, under
  exactly the scalar engine's fused-superblock guards;
* **one batch step** (``ghandlers[pc]``) otherwise.

Counters (``steps``/``scalar``/``branches``/``divergent``), retired
accounting, spin-escape and boost bookkeeping, group orders and every
memory interleaving are maintained exactly as in the scalar loops;
``tests/test_vector_engine.py`` and the fuzz oracle enforce
bit-identity, and ``REPRO_VECTOR=0`` keeps the scalar loops available
as a live differential witness.

Retired counts are batched per group: a group carries a *pending*
per-lane delta that flushes into the lane's retired vector whenever the
group merges into another, halts, or the run truncates - the sum of
flushed deltas always equals ``scalar_instructions`` (checked under
``REPRO_SANITIZE=1``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sanitize import sanitizer_enabled
from . import memo
from .decode import RK_BRANCH, RK_CALL, RK_FALL, RK_HALT, RK_JUMP, RK_RET
from .events import LockstepResult
from .lanes import LaneState, bounded_call, bounded_enabled
from .lockstep import ExecutionError, _san_result


def _insert(groups: Dict, key, lanes: List[int], pending: int,
            stamp: int, retd) -> None:
    """Insert a lane list into ``groups[key]``; on merge, flush both
    sides' pending retired deltas (the merged group restarts at 0) and
    keep the lane list sorted so execution order matches the reference
    engine's tid iteration order.

    ``stamp`` is the last step at which these lanes executed; a group
    keeps the *minimum* over its lanes, which is the only aggregate the
    spin-escape (oldest live lane) and boost selection (oldest group
    first) ever read, so no per-lane last-executed array is needed."""
    cur = groups.get(key)
    if cur is None:
        groups[key] = [lanes, pending, stamp]
        return
    p0 = cur[1]
    if p0:
        for i in cur[0]:
            retd[i] += p0
        cur[1] = 0
    if pending:
        for i in lanes:
            retd[i] += pending
    cur[0].extend(lanes)
    cur[0].sort()
    if stamp < cur[2]:
        cur[2] = stamp


def _interior_clear(groups: Dict, depth: int, lo: int, hi: int) -> bool:
    """True when no other group at ``depth`` is keyed strictly inside
    (lo, hi) — the scalar engine's mid-run merge/preemption guard."""
    for d2, p2 in groups:
        if d2 == depth and lo < p2 < hi:
            return False
    return True


def _ret_scatter_error(prog, idx: List[int], buckets: Dict,
                       reconv: int) -> ExecutionError:
    """The reference engine's IPDOM invariant error for a region whose
    lanes returned to different pcs: it reports the first running
    lane's pc against the first lane that disagrees (lanes parked at
    the reconvergence pc are filtered out before the check)."""
    lane_pc = {}
    for p2, moved in buckets.items():
        for i in moved:
            lane_pc[i] = p2
    seq = [lane_pc[i] for i in idx if lane_pc[i] != reconv]
    pc0 = seq[0]
    other = next(p for p in seq if p != pc0)
    return ExecutionError(
        f"{prog.name}: IPDOM invariant broken at pc {pc0} "
        f"vs {other} (irreducible control flow?)"
    )


def run_minsp(ex, threads, mem) -> LockstepResult:
    """Vectorized ``MinSpPcExecutor`` (sink-free fast path only)."""
    prog = ex.program
    vdec = prog.vdecoded
    gh = vdec.ghandlers
    vblocks = vdec.blocks
    vruns = vdec.runs
    vchains = vdec.chains
    rekey = vdec.rekey
    is_atomic = vdec.is_atomic
    max_steps = ex.max_steps
    spin_k, spin_b, spin_t = ex.spin_k, ex.spin_b, ex.spin_t
    san = sanitizer_enabled()
    retired0 = sum(t.retired for t in threads) if san else 0

    ls = LaneState(threads)
    if san:
        ls.san_capture(prog.name, threads)
    R = ls.regs
    cs = ls.call_stacks
    sy = ls.syscalls
    pcv = ls.pc
    hv = ls.halted
    retd = ls.retired
    store = mem._store
    salt = mem.salt
    n_lanes = ls.n
    mt = memo.table_for(vdec) if memo.memo_enabled() else None
    bnd = bounded_enabled()

    steps = 0
    scalar = 0
    branches = 0
    divergent = 0
    truncated = False
    last_atomic_step = -(10**9)
    boost_remaining = 0

    # group record: [lanes, pending_retired, min_last_executed_step]
    groups: Dict[Tuple[int, int], list] = {}
    pcl = pcv.tolist()
    hl = hv.tolist()
    for i in range(n_lanes):  # lane order == tid order
        if not hl[i]:
            key = (-len(cs[i]), pcl[i])
            rec = groups.get(key)
            if rec is None:
                groups[key] = [[i], 0, 0]
            else:
                rec[0].append(i)

    while groups:
        if steps >= max_steps:
            truncated = True
            break

        min_sel = True
        if boost_remaining > 0 and len(groups) > 1:
            boost_remaining -= 1
            min_sel = False
            # oldest-waiter first, lowest-lane (== lowest-tid) tiebreak
            key = min(
                groups,
                key=lambda k: (groups[k][2], groups[k][0][0]),
            )
        else:
            key = min(groups)  # deepest call, then lowest pc

        rec = groups.pop(key)
        idx = rec[0]
        pending = rec[1]
        depth, pc = key
        if san:
            ls.san_group(prog.name, idx, pc, depth=-depth)
        n = len(idx)

        # grain selection: superblock chain > whole block > ALU-run
        # suffix > one step
        k = 0
        dd = 0
        fall = -1
        meta = None
        bt = None
        chl = vchains[pc]
        if chl is not None:
            if not groups:
                # alone on the schedule: nothing can preempt, merge,
                # boost past or spin-escape around this group mid-chain
                for ch in chl:
                    if steps + ch[0] <= max_steps:
                        k, fn, rkc, tgt, fall, _bpc, has_at, lat, dd \
                            = ch[:9]
                        meta = ch[12]
                        break
            elif (steps + 1 - last_atomic_step > spin_b
                    and min_sel and boost_remaining == 0):
                # longest candidate (full chain, then its entry-depth
                # prefixes) whose boundary keys all win: every key
                # stays at or below d0_maxpc while at the entry depth
                # and strictly deeper after a chained call, so no
                # same-depth group keyed above d0_maxpc (and none can
                # be keyed below: this group was the minimum) ever
                # merges with or preempts it mid-chain
                for ch in chl:
                    if ch[6] or steps + ch[0] > max_steps:
                        continue
                    mx = ch[9]
                    ok = True
                    for d2, p2 in groups:
                        if d2 == depth and p2 <= mx:
                            ok = False
                            break
                    if ok:
                        k, fn, rkc, tgt, fall, _bpc, has_at, lat, dd \
                            = ch[:9]
                        meta = ch[12]
                        break
        if k == 0:
            vb = vblocks[pc]
            if vb is not None:
                if not groups:
                    if steps + vb[0] <= max_steps:
                        k, fn, rkc, tgt, has_at, lat = vb[:6]
                        meta, bt = vb[6], vb[7]
                elif (not vb[4]
                        and steps + vb[0] <= max_steps
                        and steps + 1 - last_atomic_step > spin_b
                        # min-selection (not merely boost exhausted)
                        # guarantees no lower-keyed group exists to
                        # preempt us at an interior re-key
                        and min_sel and boost_remaining == 0
                        and _interior_clear(groups, depth, pc, pc + vb[0])):
                    k, fn, rkc, tgt, has_at, lat = vb[:6]
                    meta, bt = vb[6], vb[7]
        if k == 0:
            vr = vruns[pc]
            if (vr is not None
                    and steps + vr[0] <= max_steps
                    and steps + 1 - last_atomic_step > spin_b
                    and (boost_remaining == 0 or not groups)
                    and _interior_clear(groups, depth, pc, pc + vr[0])):
                k, fn, meta, bt = vr
                rkc, tgt, has_at, lat = RK_FALL, 0, False, -1
            else:
                k = 1
                fn = gh[pc]
                rkc, tgt = rekey[pc]
                has_at = is_atomic[pc]
                lat = 0

        if fall < 0:  # single-block grains: covered pcs are contiguous
            fall = pc + k

        if mt is not None and meta is not None:
            res = mt.invoke(meta, fn, bt if bnd else None, idx, R, cs,
                            sy, pcv, hv, store, salt)
        elif bt is not None and bnd:
            res = bounded_call(bt, fn, idx, R, cs, sy, pcv, hv, store,
                               salt)
        else:
            res = fn(idx, R, cs, sy, pcv, hv, store, salt)
        steps += k
        scalar += k * n
        pending += k
        if has_at:
            last_atomic_step = steps - k + lat + 1
        depth -= dd  # chained-through calls deepen the group's key

        # spin-lock escape (see MinSpPcExecutor._run_fast); for k > 1
        # grains the guards above keep the window stale (or the
        # schedule empty), so this can only fire after single steps.
        # The oldest live lane is the min over waiting groups' stamps
        # (the just-executed group's lanes are at ``steps``).
        if (boost_remaining == 0 and groups
                and steps - last_atomic_step <= spin_b):
            oldest = min(g[2] for g in groups.values())
            if steps - oldest >= spin_k:
                boost_remaining = spin_t

        if rkc == RK_FALL:
            _insert(groups, (depth, fall), idx, pending, steps, retd)
        elif rkc == RK_BRANCH:
            branches += 1
            taken, fell = res
            if not fell:
                _insert(groups, (depth, tgt), idx, pending, steps, retd)
            elif not taken:
                _insert(groups, (depth, fall), idx, pending, steps, retd)
            else:
                divergent += 1
                _insert(groups, (depth, tgt), taken, pending, steps, retd)
                _insert(groups, (depth, fall), fell, pending, steps, retd)
        elif rkc == RK_JUMP:
            _insert(groups, (depth, tgt), idx, pending, steps, retd)
        elif rkc == RK_CALL:
            _insert(groups, (depth - 1, tgt), idx, pending, steps, retd)
        elif rkc == RK_RET:
            d2 = depth + 1
            for p2, moved in res.items():
                _insert(groups, (d2, p2), moved, pending, steps, retd)
        else:  # RK_HALT: flush and leave the schedule (pcs set by fn)
            for i in idx:
                retd[i] += pending

    if truncated:
        for (d2, p2), rec2 in groups.items():
            lanes2, pending2 = rec2[0], rec2[1]
            for i in lanes2:
                pcv[i] = p2
                retd[i] += pending2

    if mt is not None:
        mt.maybe_flush()
    ls.writeback(threads)
    if san:
        _san_result(prog.name, threads, retired0, scalar)
    return LockstepResult(
        batch_size=len(threads),
        steps=steps,
        scalar_instructions=scalar,
        divergent_branches=divergent,
        branches=branches,
        retired_per_thread=[t.retired for t in threads],
        truncated=truncated,
    )


def run_ipdom(ex, threads, mem) -> LockstepResult:
    """Vectorized ``IpdomExecutor`` (sink-free fast path only); also
    serves ``PredicatedExecutor``, whose sink-free semantics are
    architecturally identical."""
    prog = ex.program
    vdec = prog.vdecoded
    gh = vdec.ghandlers
    vblocks = vdec.blocks
    vruns = vdec.runs
    vchains = vdec.chains
    rekey = vdec.rekey
    reconv_override = ex.reconv_override
    cfg = ex.cfg
    max_steps = ex.max_steps
    end = len(prog)
    san = sanitizer_enabled()
    retired0 = sum(t.retired for t in threads) if san else 0

    ls = LaneState(threads)
    if san:
        ls.san_capture(prog.name, threads)
    R = ls.regs
    cs = ls.call_stacks
    sy = ls.syscalls
    pcv = ls.pc
    hv = ls.halted
    retd = ls.retired
    store = mem._store
    salt = mem.salt
    mt = memo.table_for(vdec) if memo.memo_enabled() else None
    bnd = bounded_enabled()

    steps = 0
    scalar = 0
    branches = 0
    divergent = 0
    truncated = False
    scattered = None  # ret buckets pending at a truncation point
    # regions never re-filter per iteration (they move as one unit);
    # they only drop lanes that halted inside a descendant, detected by
    # a monotonic halt counter snapshotted per region
    halt_count = 0

    # region: [lanes, pc, reconvergence_pc, seen_halt_count]
    stack: List[list] = []
    live = ls.live_lanes()
    if live:
        if max_steps > 0:
            pcl = pcv.tolist()
            pc0 = pcl[live[0]]
            for i in live[1:]:
                if pcl[i] != pc0:
                    raise ExecutionError(
                        f"{prog.name}: IPDOM invariant broken at pc "
                        f"{pc0} vs {pcl[i]} (irreducible control "
                        f"flow?)"
                    )
            stack.append([live, pc0, end, 0])
        else:  # the reference truncates before its uniformity check
            truncated = True

    while stack:
        top = stack[-1]
        if top[3] != halt_count:
            top[0] = [i for i in top[0] if not hv[i]]
            top[3] = halt_count
        idx = top[0]
        pc = top[1]
        reconv = top[2]
        if not idx or pc == reconv:
            stack.pop()
            continue
        if steps >= max_steps:
            truncated = True
            break
        if san:
            ls.san_group(prog.name, idx, pc)
        n = len(idx)

        k = 0
        fall = bpc = -1
        meta = None
        bt = None
        chl = vchains[pc]
        if chl is not None:
            # longest candidate that neither crosses the region's
            # reconvergence pc inside any covered block nor chains
            # through a boundary equal to it (the reference pops the
            # region there)
            for ch in chl:
                if steps + ch[0] > max_steps or reconv in ch[11]:
                    continue
                ok = True
                for lo, hi in ch[10]:
                    if lo < reconv < hi:
                        ok = False
                        break
                if ok:
                    k, fn, rkc, tgt, fall, bpc = ch[:6]
                    meta = ch[12]
                    break
        if k == 0:
            vb = vblocks[pc]
            if vb is not None:
                # a block may end exactly at the reconvergence pc but
                # must never cross it mid-block (possible with
                # speculative reconv overrides; CFG reconv pcs are
                # block leaders)
                if (steps + vb[0] <= max_steps
                        and not (pc < reconv < pc + vb[0])):
                    k, fn, rkc, tgt = vb[0], vb[1], vb[2], vb[3]
                    meta, bt = vb[6], vb[7]
        if k == 0:
            vr = vruns[pc]
            if (vr is not None and steps + vr[0] <= max_steps
                    and not (pc < reconv < pc + vr[0])):
                k, fn, meta, bt = vr
                rkc, tgt = RK_FALL, 0
            else:
                k = 1
                fn = gh[pc]
                rkc, tgt = rekey[pc]

        if fall < 0:  # single-block grains: covered pcs are contiguous
            fall = pc + k
            bpc = pc + k - 1

        if mt is not None and meta is not None:
            res = mt.invoke(meta, fn, bt if bnd else None, idx, R, cs,
                            sy, pcv, hv, store, salt)
        elif bt is not None and bnd:
            res = bounded_call(bt, fn, idx, R, cs, sy, pcv, hv, store,
                               salt)
        else:
            res = fn(idx, R, cs, sy, pcv, hv, store, salt)
        steps += k
        scalar += k * n
        for i in idx:
            retd[i] += k

        if rkc == RK_FALL:
            top[1] = fall
        elif rkc == RK_BRANCH:
            branches += 1
            taken, fell = res
            if not fell:
                top[1] = tgt
            elif not taken:
                top[1] = fall
            else:
                divergent += 1
                rpc = reconv_override.get(bpc)
                if rpc is None:
                    rpc = cfg.reconvergence_pc(bpc)
                top[1] = rpc
                if tgt == fall:
                    # outcomes diverged but both sides land on the
                    # fallthrough pc: one full-width side, counted as
                    # divergent, bounded by the new reconvergence pc
                    stack.append([idx, fall, rpc, halt_count])
                elif fall < tgt:  # lower-pc side first (MinPC order)
                    stack.append([taken, tgt, rpc, halt_count])
                    stack.append([fell, fall, rpc, halt_count])
                else:
                    stack.append([fell, fall, rpc, halt_count])
                    stack.append([taken, tgt, rpc, halt_count])
        elif rkc == RK_JUMP or rkc == RK_CALL:
            top[1] = tgt
        elif rkc == RK_RET:
            buckets = res
            if len(buckets) == 1:
                for p2 in buckets:
                    top[1] = p2
            else:
                rest = [(p2, moved) for p2, moved in buckets.items()
                        if p2 != reconv]
                if len(rest) == 1:
                    # lanes returning straight to the reconvergence pc
                    # park; the rest continue as a child region (the
                    # reference's running-filter does the same split)
                    top[1] = reconv
                    stack.append([rest[0][1], rest[0][0], reconv,
                                  halt_count])
                elif steps >= max_steps:
                    # the reference truncates before its invariant
                    # check; final pcs are patched in after the sweep
                    truncated = True
                    scattered = buckets
                    break
                else:
                    raise _ret_scatter_error(prog, idx, buckets, reconv)
        else:  # RK_HALT: the whole region halted (pcs set by fn)
            halt_count += n
            top[0] = []

    if truncated and stack:
        # materialize final pcs bottom-up: ancestors hold supersets, so
        # the topmost (innermost) region wins; halted lanes keep the
        # halt pc their handler recorded
        for region in stack:
            p2 = region[1]
            for i in region[0]:
                if not hv[i]:
                    pcv[i] = p2
        if scattered is not None:
            for p2, moved in scattered.items():
                for i in moved:
                    pcv[i] = p2

    if mt is not None:
        mt.maybe_flush()
    ls.writeback(threads)
    if san:
        _san_result(prog.name, threads, retired0, scalar)
    return LockstepResult(
        batch_size=len(threads),
        steps=steps,
        scalar_instructions=scalar,
        divergent_branches=divergent,
        branches=branches,
        retired_per_thread=[t.retired for t in threads],
        truncated=truncated,
    )

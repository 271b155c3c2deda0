"""Runtime DES sanitizer: the simulator's bit-exactness contract, armed.

Every pinned timeline in this repo (the scheduler's golden digests,
traced vs untraced runs, sync vs scheduled GC) rests on a handful of
low-level invariants: simulation time never moves backwards,
serially-reusable locks are released exactly once per hold, nothing is
left held or in flight when a run drains, no command carries a negative
phase, and no resource accumulates more busy time than wall-clock
elapsed.  The digest *tests* sample specific configurations; the
sanitizer checks the invariants on **every** run it is armed for —
``SimEngine(sanitize=True)``, or the whole test suite via
``pytest --sanitize``.

Cost model
----------
The sanitizer follows the PR 8 recorder pattern: the engine and the
scheduler core hoist ``sanitizer``/``_san`` into a local and guard every
hook with an ``is None`` check, so a disarmed run pays one pointer test
per hook site and allocates nothing.  Armed runs trade speed for
checking but change **no observable behaviour**: checks read state that
already exists, never allocate sequence numbers and never touch the
event list — armed and disarmed runs are bit-identical (tested in
``tests/sim/test_sanitizer.py`` and against the golden digests).

Checks
------
* **time monotonicity** — a popped event earlier than the clock means a
  corrupted event list;
* **lock discipline** — every release arm of the flat dispatch core
  checks that its bus, ECC engine or cache register is held.  Acquires
  need no runtime hook: each acquire site is dominated by an explicit
  ``if busy`` park check, a structure the static lint's DET107 walk
  verifies;
* **drain state** — at a quiescent point no lock may still be held and
  no command tag may still be in flight;
* **phase sanity** — every enqueued command's phases must have
  non-negative durations and occupancies within them;
* **busy conservation** — per-resource accumulated busy time cannot
  exceed elapsed simulation time times the resource's capacity (a bus
  or ECC engine cannot be >100% utilised; a die cannot exceed its
  plane count).

Violations raise :class:`SanitizerError` naming the offending resource,
tag or timestamp, so a failing ``--sanitize`` run points at the broken
invariant instead of a downstream bit-mismatch.
"""

from __future__ import annotations

from repro.errors import SimulationError


class SanitizerError(SimulationError):
    """An armed sanitizer detected a broken simulator invariant."""


def _fmt(key) -> str:
    """Render a lock key — ``("bus", 3)`` → ``bus[3]`` — for messages."""
    if isinstance(key, tuple):
        kind = key[0]
        return f"{kind}[{'/'.join(str(part) for part in key[1:])}]"
    return str(key)


class DesSanitizer:
    """Invariant checker shared by one engine and its scheduler cores.

    Engine hooks call :meth:`backwards_time` when the run loop (or the
    flat burst handler) accepts an event behind the clock;
    :meth:`release_check` validates the dispatch core's release arms;
    :meth:`check_command` validates phase plans at admission; and
    :meth:`check_drain` audits a quiescent core for leaked locks,
    leaked in-flight tags and busy-time conservation.

    ``checks`` counts every validation performed — tests assert it is
    non-zero to prove an armed run actually exercised the hooks.
    """

    __slots__ = ("checks",)

    def __init__(self) -> None:
        #: Total validations performed (telemetry; never read on hot paths).
        self.checks = 0

    # -- engine hooks ------------------------------------------------------------

    def backwards_time(self, event_time_s: float, now_s: float) -> None:
        """Report an event popped behind the clock (always raises)."""
        raise SanitizerError(
            f"backwards time: event at {event_time_s!r} s popped with the "
            f"clock already at {now_s!r} s — the event list violated "
            "(time, seq) order"
        )

    # -- lock hooks --------------------------------------------------------------

    def release_check(self, key, busy) -> None:
        """Validate a release site: the lock must currently be held.

        The dispatch core's release arms call this with the lock's live
        ``busy`` value *before* clearing it; acquire sites need no twin
        hook because every acquire is dominated by an explicit ``if
        busy`` guard in the burst handler (the static lint's DET107 walk
        covers the structure).
        """
        self.checks += 1
        if not busy:
            raise SanitizerError(
                f"double release of {_fmt(key)}: released while free"
            )

    # -- command hooks -----------------------------------------------------------

    def check_command(self, command) -> None:
        """Validate a command's phase plan at admission (named by tag)."""
        self.checks += 1
        for index, phase in enumerate(command.phases):
            duration = phase.duration_s
            occupancy = phase.occupancy_s
            if duration < 0.0:
                raise SanitizerError(
                    f"command tag {command.tag}: phase {index} has negative "
                    f"duration {duration!r} s"
                )
            if occupancy < 0.0 or occupancy > duration:
                raise SanitizerError(
                    f"command tag {command.tag}: phase {index} occupancy "
                    f"{occupancy!r} s outside [0, {duration!r}]"
                )

    # -- drain audit -------------------------------------------------------------

    def check_drain(self, core, elapsed_s: float | None = None) -> None:
        """Audit a quiescent scheduler core.

        Call only at points the caller believes are quiescent (a closed
        batch fully completed, a session drained): every lock must be
        free, the in-flight tag map must agree with the in-flight
        count (and be empty when it is zero), and — when ``elapsed_s``
        is given — every per-resource busy accumulator must not exceed
        it (float tolerance).
        """
        self.checks += 1
        leaked = [
            ("bus", index)
            for index, lock in enumerate(core._buses) if lock[0]
        ]
        leaked += [
            ("ecc", index)
            for index, lock in enumerate(core._eccs) if lock[0]
        ]
        leaked += [
            ("cache", die, slot)
            for die, row in enumerate(core._caches)
            for slot, lock in enumerate(row) if lock[0]
        ]
        if leaked:
            names = ", ".join(_fmt(key) for key in leaked)
            raise SanitizerError(f"leaked lock(s) at drain: {names}")
        meta = core._meta
        if core.in_flight != len(meta):
            raise SanitizerError(
                f"in-flight accounting mismatch at drain: count "
                f"{core.in_flight} vs {len(meta)} live tag(s)"
            )
        if core.in_flight == 0 and meta:
            tags = ", ".join(str(tag) for tag in sorted(meta))
            raise SanitizerError(f"leaked in-flight tag(s) at drain: {tags}")
        if elapsed_s is not None:
            tolerance = 1e-9 * max(1.0, elapsed_s) + 1e-12
            limit = elapsed_s + tolerance
            # A die's accumulator sums its planes (multi-plane overlaps
            # ISPP on one die), so its capacity is planes x elapsed;
            # buses and ECC engines are strictly serially reusable.
            planes = core.planes
            for track, busies, capacity in (
                ("die", core.die_busy_s, planes),
                ("channel", core.channel_busy_s, 1),
                ("ecc", core.ecc_busy_s, 1),
            ):
                cap_limit = capacity * limit
                for index, busy in enumerate(busies):
                    if busy > cap_limit:
                        raise SanitizerError(
                            f"busy conservation violated: {track} {index} "
                            f"accumulated {busy!r} s busy over {elapsed_s!r} "
                            f"s elapsed (capacity {capacity})"
                        )

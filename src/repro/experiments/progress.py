"""One progress protocol for every experiment surface.

Historically the engine reported progress as bare strings (a line
callback) while the CLI layered its own ad-hoc prints on top; the two
could not share counters, and nothing downstream could compute an ETA
without re-parsing text.  :class:`ProgressEvent` unifies them: it *is*
a ``str`` (so every existing line sink — ``print``, ``lines.append``,
``lambda s: ...`` — keeps working untouched) that additionally carries
the structured fields a richer consumer wants: what happened
(``kind``), to which work unit (``description``), how far along the
run is (``completed``/``total``), and the wall-clock picture
(``elapsed_s``/``eta_s``).

The engine emits one event per finished work unit (cached or
computed); :meth:`repro.api.study.Study.stream` and the CLI both
consume exactly these events.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Progress", "ProgressEvent"]


class ProgressEvent(str):
    """A rendered progress line that is also structured data.

    Attributes
    ----------
    kind:
        ``"start"`` (a unit is about to compute inline — emitted by
        serial runs so long cells stay visibly alive), ``"cached"``
        (served from the result cache), ``"computed"`` (evaluated
        this run) or ``"note"`` (an engine-level remark, e.g. the
        serial-fallback warning — not tied to one unit).  Exactly one
        *completion* event (``cached``/``computed``) fires per unit.
    description:
        The work unit's human-readable identity, without the
        status/ETA decoration.
    completed / total:
        Units finished so far (cached + computed) out of the run's
        plan.  ``note`` events carry the counters of the moment they
        were emitted.
    cached / computed:
        The split behind ``completed``: units served from the result
        cache vs. units evaluated this run.  ``completed == cached +
        computed`` on every completion event, which is what lets a
        consumer (the CLI's summary line) report an honest hit rate
        from the final event alone, without counting events itself.
    elapsed_s / eta_s:
        Seconds since the run started, and the remaining-time estimate
        extrapolated from the *computed* units' pace (``None`` while
        there is no basis for one — e.g. everything so far was
        cached, or the run just started).
    """

    kind: str
    description: str
    completed: int
    total: int
    cached: int
    computed: int
    elapsed_s: float
    eta_s: float | None

    def __new__(
        cls,
        text: str,
        *,
        kind: str,
        description: str,
        completed: int,
        total: int,
        cached: int = 0,
        computed: int = 0,
        elapsed_s: float = 0.0,
        eta_s: float | None = None,
    ) -> "ProgressEvent":
        self = super().__new__(cls, text)
        self.kind = kind
        self.description = description
        self.completed = completed
        self.total = total
        self.cached = cached
        self.computed = computed
        self.elapsed_s = elapsed_s
        self.eta_s = eta_s
        return self

    @classmethod
    def unit(
        cls,
        kind: str,
        description: str,
        completed: int,
        total: int,
        elapsed_s: float,
        eta_s: float | None = None,
        cached: int = 0,
        computed: int = 0,
    ) -> "ProgressEvent":
        """Event for one finished unit, rendered in the classic style.

        ``"[IA] n=400 (...) [done 3/18, eta 42s]"`` — the bracketed
        status suffix is what a plain line sink prints; structured
        consumers read the fields instead.
        """
        status = f"[{'cached' if kind == 'cached' else 'done'} "
        status += f"{completed}/{total}"
        if eta_s is not None:
            status += f", eta {_fmt_seconds(eta_s)}"
        status += "]"
        return cls(
            f"{description} {status}",
            kind=kind,
            description=description,
            completed=completed,
            total=total,
            cached=cached,
            computed=computed,
            elapsed_s=elapsed_s,
            eta_s=eta_s,
        )

    @classmethod
    def note(
        cls, text: str, completed: int = 0, total: int = 0,
        elapsed_s: float = 0.0, cached: int = 0, computed: int = 0,
    ) -> "ProgressEvent":
        """A free-form engine remark (serial fallback, cache stats)."""
        return cls(
            text,
            kind="note",
            description=text,
            completed=completed,
            total=total,
            cached=cached,
            computed=computed,
            elapsed_s=elapsed_s,
        )


def _fmt_seconds(seconds: float) -> str:
    """Compact duration: ``42s``, ``3m10s``, ``2h05m``."""
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, seconds = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{seconds:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


#: A progress sink.  Accepts every :class:`ProgressEvent`; because the
#: event subclasses ``str``, any legacy line sink satisfies this type.
Progress = Callable[[ProgressEvent], None]

"""The generation store: numbered generations under one commit pointer.

Every writer that keeps successive versions of a multi-file state — the
stream checkpoint and the serving daemon's ``state_dir`` — stores them
in one layout::

    <root>/
        CURRENT          # "gen-00000008\\n": the committed generation, flipped last
        CURRENT.spare    # the previous CURRENT inode, rewritten by the next flip
        gen-00000007/    # the rollback target
        gen-00000008/
        spare/           # a retired generation, rewritten by the next commit

:class:`GenerationStore` owns every decision about it:

* **naming** — ``gen-%08d``, one past the highest number on disk, with
  generations ordered by number, not by name (a ``gen-%06d`` directory
  an older daemon wrote counts by its number);
* **the commit** — a writer fills a staging directory (the recycled
  spare, once there is one, through
  :func:`~repro.reliability.atomic.atomic_write_dir`), which is renamed
  into place; only then is ``CURRENT`` flipped to it with
  :func:`~repro.reliability.atomic.flip_pointer` — the single commit
  point.  A kill at any step leaves ``CURRENT`` on the previous
  generation or on the new one;
* **retention** — :data:`RETAIN_GENERATIONS` committed generations plus
  one spare: surplus generations are retired to the spare
  (:func:`~repro.reliability.atomic.retire_dir`), so a steady-state
  commit frees no inode and no block.  A surplus generation of another
  naming holds another writer's layout and is deleted instead, so a
  directory an older daemon filled is pruned on its first commit;
* **the stale-temp sweep** before each commit;
* **rollback** — :meth:`GenerationStore.load` tries the generation
  ``CURRENT`` names, then the others newest first, and counts
  ``reliability.rollbacks`` and emits a ``rollback`` event when it had
  to skip a damaged one.

A generation is overwritten in place once it has been retired to the
spare and a later commit stages in it: three commits after it was
written.  So a reader may memory-map a generation's files only while it
is among the newest two, and must move on (or stop reading) before the
third commit after it.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from repro import obs
from repro.reliability.atomic import (
    atomic_write_dir,
    flip_pointer,
    remove_stale_temps,
    retire_dir,
)
from repro.reliability.integrity import IntegrityError

PathLike = Union[str, Path]
T = TypeVar("T")

CURRENT_NAME = "CURRENT"
GENERATION_PREFIX = "gen-"
#: Committed generations kept on disk (current + rollback target).
RETAIN_GENERATIONS = 2
#: The retired generation the next commit overwrites in place; matches
#: no generation name, so no reader ever loads it.
SPARE_NAME = "spare"

__all__ = [
    "CURRENT_NAME",
    "GENERATION_PREFIX",
    "GenerationStore",
    "RETAIN_GENERATIONS",
    "SPARE_NAME",
]


def _generation_name(number: int) -> str:
    return "%s%08d" % (GENERATION_PREFIX, number)


def _generation_number(name: str) -> Optional[int]:
    """The number of generation directory ``name``, or ``None`` for any other name."""
    digits = name[len(GENERATION_PREFIX):]
    if name.startswith(GENERATION_PREFIX) and digits.isdigit():
        return int(digits)
    return None


class GenerationStore:
    """The generations under ``root`` (see the module docstring)."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    def generations(self) -> List[Path]:
        """Committed generation directories, oldest first."""
        if not self.root.is_dir():
            return []
        numbered = []
        for entry in self.root.iterdir():
            number = _generation_number(entry.name)
            if number is not None and entry.is_dir():
                numbered.append((number, entry))
        return [entry for _, entry in sorted(numbered)]

    def current(self) -> Path:
        """The committed generation: the one ``CURRENT`` names, no rollback.

        For a reader that must see exactly what the writer committed
        last (a serving replica following its owner); raises
        :class:`OSError` when ``CURRENT`` is missing or names no
        generation, undecodable bytes included.
        """
        name = (self.root / CURRENT_NAME).read_bytes().decode("ascii", "replace").strip()
        pointed = self.root / name
        if _generation_number(name) is None or not pointed.is_dir():
            raise FileNotFoundError("%s names no generation in %s" % (CURRENT_NAME, self.root))
        return pointed

    @contextmanager
    def commit(self) -> Iterator[Tuple[Path, Path]]:
        """Stage the next generation; on clean exit, commit it and prune.

        Yields ``(generation, staging)``: the path the generation will be
        committed at (its name is the generation's name) and the
        directory to fill — the recycled spare once there is one, so
        same-named files are overwritten in place.  On clean exit the
        staging directory is renamed to ``generation``, ``CURRENT`` is
        flipped to it, and generations past :data:`RETAIN_GENERATIONS`
        are retired to the spare.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        remove_stale_temps(self.root)
        numbers = [_generation_number(entry.name) for entry in self.generations()]
        generation = self.root / _generation_name(max(numbers, default=0) + 1)
        spare = self.root / SPARE_NAME
        with atomic_write_dir(generation, recycle=spare) as staging:
            yield generation, staging
        flip_pointer(self.root / CURRENT_NAME, (generation.name + "\n").encode("ascii"))
        for retired in self.generations()[:-RETAIN_GENERATIONS]:
            # Another naming (an older daemon's gen-%06d) means another
            # layout: recycling it would keep files no commit rewrites.
            own = retired.name == _generation_name(_generation_number(retired.name))
            retire_dir(retired, spare if own else None)

    def load(
        self, read: Callable[[Path], T], *, fallback: Sequence[Path] = ()
    ) -> Tuple[Path, T]:
        """``(generation, read(generation))`` for the newest generation ``read`` accepts.

        Tries the generation ``CURRENT`` names first (the committed
        one), then the remaining generations newest first, then
        ``fallback`` (a legacy layout's directory).  A candidate whose
        ``read`` raises :class:`IntegrityError` or :class:`OSError` (a
        missing file included) is skipped; settling on a later one is a
        rollback, counted in ``reliability.rollbacks`` and logged as a
        ``rollback`` event naming the damaged candidates.  Raises
        :class:`FileNotFoundError` when there is no candidate at all and
        :class:`IntegrityError` naming every damaged one when none reads.
        """
        try:
            candidates = [self.current()]
        except OSError:
            candidates = []
        candidates += [entry for entry in reversed(self.generations()) if entry not in candidates]
        candidates += list(fallback)
        if not candidates:
            raise FileNotFoundError(
                "%s holds no generation (no %s, no %s* directory)"
                % (self.root, CURRENT_NAME, GENERATION_PREFIX)
            )
        problems: List[str] = []
        for candidate in candidates:
            try:
                result = read(candidate)
            except (IntegrityError, OSError) as exc:
                problems.append("%s: %s" % (candidate.name, exc))
                continue
            if problems:
                obs.incr("reliability.rollbacks")
                obs.event(
                    "rollback",
                    checkpoint=str(self.root),
                    resolved=candidate.name,
                    damaged=list(problems),
                )
            return candidate, result
        raise IntegrityError(
            "no intact generation in %s (%s)" % (self.root, "; ".join(problems)),
            path=self.root,
        )

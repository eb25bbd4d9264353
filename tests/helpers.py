"""Session factories shared by the test modules."""
from __future__ import annotations

from teamcoord.core import ACTIONS, GridSpec, PlayerTrajectory, Role, TeamSession

MOVES = ((0, -1), (1, 0), (0, 1), (-1, 0))


def traj(pid, role, cells, interval=3.0, actions=None, targets=None):
    """A trajectory over `cells`; `actions` and `targets` hold ActionTags and
    Positions per tick, None for none."""
    samples = []
    for i, (x, y) in enumerate(cells):
        action = actions[i] if actions else None
        target = targets[i] if targets else None
        code = ACTIONS.index(action) if action is not None else -1
        tx, ty, has_target = (target.x, target.y, True) if target is not None else (0, 0, False)
        samples.append((i, i * interval, x, y, code, tx, ty, has_target))
    return PlayerTrajectory(player_id=pid, role=role, samples=samples)


def session_from_cells(medic_cells, engineer_cells, grid, session_id="s", events=(), **kw):
    """Build a 2+2 session from per-player cell lists (already step-valid)."""
    interval = kw.get("sample_interval_s", 3.0)
    players = [traj(f"medic{i + 1}", Role.MEDIC, c, interval) for i, c in enumerate(medic_cells)]
    players += [traj(f"engineer{i + 1}", Role.ENGINEER, c, interval) for i, c in enumerate(engineer_cells)]
    return TeamSession(session_id=session_id, grid=grid, players=tuple(players),
                       events=tuple(events), **kw)


def random_walk_cells(rng, grid, n_ticks, start=None, p_wait=0.25):
    """Lazy 4-neighbor random walk, clipped at the grid border."""
    if start is None:
        x, y = int(rng.integers(grid.width)), int(rng.integers(grid.height))
    else:
        x, y = start
    cells = [(x, y)]
    for _ in range(n_ticks - 1):
        if rng.random() >= p_wait:
            dx, dy = MOVES[rng.integers(4)]
            if grid.contains(x + dx, y + dy):
                x, y = x + dx, y + dy
        cells.append((x, y))
    return cells


def random_session(rng, width=8, height=8, n_ticks=12, session_id="rand", **kw):
    grid = GridSpec(width, height)
    cells = [random_walk_cells(rng, grid, n_ticks) for _ in range(4)]
    return session_from_cells(cells[:2], cells[2:], grid, session_id=session_id, **kw)

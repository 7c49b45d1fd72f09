"""Built-in toy environments with scripted experts.

All three follow the deployment interface: ``reset()`` returns an
observation set (key -> (schema, raw value)), ``step(action)`` returns
(observation set, reward, done). Environment randomness is seeded at
construction so rollouts are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .codec import Modality, TensorSchema
from .errors import SchemaError


@dataclass(frozen=True)
class EnvSpec:
    observation_schemas: dict[str, TensorSchema]
    action_schema: TensorSchema
    episode_length: int
    reward_range: tuple[float, float]

    def __post_init__(self):
        if not self.action_schema.is_action:
            raise SchemaError("action schema must have is_action=True")
        if self.action_schema.modality not in (Modality.DISCRETE, Modality.CONTINUOUS):
            raise SchemaError("actions must be discrete or continuous")


class GridReach:
    """5x5 grid: move the agent onto the goal cell within 20 steps.

    Observations are two discrete scalars (agent cell, goal cell in [0, 25)),
    the action is one discrete scalar (0 up, 1 down, 2 left, 3 right; other
    values waste the step). Reward 1.0 on reaching the goal, which ends the
    episode.
    """

    SIZE = 5
    HORIZON = 20
    task_id = "gridreach"

    def __init__(self, seed: int | None = 0):
        self._rng = np.random.default_rng(seed)
        self._agent_schema = TensorSchema.discrete("agent", ())
        self._goal_schema = TensorSchema.discrete("goal", ())
        self.spec = EnvSpec(
            observation_schemas={"agent": self._agent_schema, "goal": self._goal_schema},
            action_schema=TensorSchema.discrete("move", (), is_action=True),
            episode_length=self.HORIZON,
            reward_range=(0.0, 1.0),
        )
        self._agent = self._goal = 0
        self._steps = 0

    def _observe(self):
        return {
            "agent": (self._agent_schema, np.int64(self._agent)),
            "goal": (self._goal_schema, np.int64(self._goal)),
        }

    def reset(self):
        cells = self._rng.choice(self.SIZE * self.SIZE, size=2, replace=False)
        self._agent, self._goal = int(cells[0]), int(cells[1])
        self._steps = 0
        return self._observe()

    def step(self, action):
        move = int(np.asarray(action).reshape(()))
        r, c = divmod(self._agent, self.SIZE)
        if move == 0:
            r = max(0, r - 1)
        elif move == 1:
            r = min(self.SIZE - 1, r + 1)
        elif move == 2:
            c = max(0, c - 1)
        elif move == 3:
            c = min(self.SIZE - 1, c + 1)
        self._agent = r * self.SIZE + c
        self._steps += 1
        reached = self._agent == self._goal
        reward = 1.0 if reached else 0.0
        done = reached or self._steps >= self.HORIZON
        return self._observe(), reward, done


class GridReachExpert:
    """Shortest path: close the row gap first, then the column gap."""

    def act(self, observation_set):
        agent = int(observation_set["agent"][1])
        goal = int(observation_set["goal"][1])
        ar, ac = divmod(agent, GridReach.SIZE)
        gr, gc = divmod(goal, GridReach.SIZE)
        if ar != gr:
            return np.int64(0 if gr < ar else 1)
        return np.int64(2 if gc < ac else 3)


class TwoTaskBandit:
    """One-step bandit; tasks share specs but have opposite optimal actions.

    The observation is a constant, so nothing but a prompt can disambiguate
    which of the two tasks is being played.
    """

    HORIZON = 1
    OPTIMAL_ACTION = {"a": 0, "b": 1}

    def __init__(self, variant: str, seed: int | None = 0):
        if variant not in self.OPTIMAL_ACTION:
            raise ValueError("variant must be 'a' or 'b'")
        self.variant = variant
        self.task_id = f"bandit_{variant}"
        self.optimal_action = self.OPTIMAL_ACTION[variant]
        self._signal_schema = TensorSchema.discrete("signal", ())
        self.spec = EnvSpec(
            observation_schemas={"signal": self._signal_schema},
            action_schema=TensorSchema.discrete("pick", (), is_action=True),
            episode_length=self.HORIZON,
            reward_range=(0.0, 1.0),
        )

    def reset(self):
        return {"signal": (self._signal_schema, np.int64(0))}

    def step(self, action):
        pick = int(np.asarray(action).reshape(()))
        reward = 1.0 if pick == self.optimal_action else 0.0
        return {"signal": (self._signal_schema, np.int64(0))}, reward, True


class TwoTaskBanditExpert:
    def __init__(self, variant: str):
        self.optimal_action = TwoTaskBandit.OPTIMAL_ACTION[variant]

    def act(self, observation_set):
        return np.int64(self.optimal_action)


class LineReacher:
    """1-D continuous control: drive the position gap to zero.

    The observation is the signed gap (position - target), declared on a
    range wider than [-1, 1] so it is mu-law companded; the action is a
    velocity in [-1, 1] scaled by 0.5 per step. Reward arrives only on the
    final step as 1 - min(1, |gap|).
    """

    HORIZON = 10
    MOVE_SCALE = 0.5
    BOUND = 2.5
    task_id = "linereacher"

    def __init__(self, seed: int | None = 0):
        self._rng = np.random.default_rng(seed)
        self._delta_schema = TensorSchema.continuous("delta", (1,), (-3.5, 3.5))
        self.spec = EnvSpec(
            observation_schemas={"delta": self._delta_schema},
            action_schema=TensorSchema.continuous("move", (1,), (-1.0, 1.0), is_action=True),
            episode_length=self.HORIZON,
            reward_range=(0.0, 1.0),
        )
        self._x = self._target = 0.0
        self._steps = 0

    def _observe(self):
        delta = np.array([self._x - self._target])
        return {"delta": (self._delta_schema, delta)}

    def reset(self):
        self._x = float(self._rng.uniform(-2.0, 2.0))
        self._target = float(self._rng.uniform(-1.0, 1.0))
        self._steps = 0
        return self._observe()

    def step(self, action):
        move = float(np.clip(np.asarray(action).reshape(-1)[0], -1.0, 1.0))
        self._x = float(np.clip(self._x + self.MOVE_SCALE * move, -self.BOUND, self.BOUND))
        self._steps += 1
        done = self._steps >= self.HORIZON
        reward = (1.0 - min(1.0, abs(self._x - self._target))) if done else 0.0
        return self._observe(), reward, done


class LineReacherExpert:
    """Proportional controller on the observed gap; never quite deadbeat."""

    GAIN = 0.8

    def act(self, observation_set):
        delta = float(np.asarray(observation_set["delta"][1]).reshape(-1)[0])
        return np.array([np.clip(-self.GAIN * delta, -1.0, 1.0)])


# name -> (environment factory taking a seed, expert factory)
ENVIRONMENTS = {
    "gridreach": (GridReach, GridReachExpert),
    "bandit_a": (partial(TwoTaskBandit, "a"), partial(TwoTaskBanditExpert, "a")),
    "bandit_b": (partial(TwoTaskBandit, "b"), partial(TwoTaskBanditExpert, "b")),
    "linereacher": (LineReacher, LineReacherExpert),
}
ENV_NAMES = tuple(ENVIRONMENTS)


def _factories(name: str):
    if name not in ENVIRONMENTS:
        raise ValueError(f"unknown environment {name!r}; choose from {ENV_NAMES}")
    return ENVIRONMENTS[name]


def make_env(name: str, seed: int | None = 0):
    return _factories(name)[0](seed)


def make_expert(name: str):
    return _factories(name)[1]()

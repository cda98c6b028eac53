"""Shared fixtures: small synthetic videos and session factories."""

from __future__ import annotations

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo


@pytest.fixture(scope="session")
def tiny_video() -> SyntheticVideo:
    """A 400-frame dense video (UA-DETRAC-like statistics)."""
    metadata = VideoMetadata(
        name="tiny", num_frames=400, width=960, height=540,
        fps=25.0, vehicles_per_frame=8.3)
    return SyntheticVideo(metadata, seed=7)


@pytest.fixture(scope="session")
def sparse_video() -> SyntheticVideo:
    """A 300-frame sparse video (JACKSON-like statistics)."""
    metadata = VideoMetadata(
        name="sparse", num_frames=300, width=600, height=400,
        fps=30.0, vehicles_per_frame=0.3)
    return SyntheticVideo(metadata, seed=11)


@pytest.fixture
def make_session(tiny_video):
    """Factory: a fresh session with the tiny video registered."""

    def factory(policy: ReusePolicy = ReusePolicy.EVA,
                video: SyntheticVideo | None = None,
                config: EvaConfig | None = None) -> EvaSession:
        session = EvaSession(config=config or EvaConfig(reuse_policy=policy))
        session.register_video(video or tiny_video)
        return session

    return factory


@pytest.fixture
def eva_session(make_session) -> EvaSession:
    return make_session(ReusePolicy.EVA)


@pytest.fixture
def noreuse_session(make_session) -> EvaSession:
    return make_session(ReusePolicy.NONE)

"""Byte-mutation property of the LSF1, LSA1 and LSN1 loaders."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BYTE_MUTATIONS, mutate, tiny_net
from lipsync import features, mesh, model
from lipsync.errors import LipSyncError

LOADERS = {"LSF1": features.load_features, "LSA1": mesh.load_anim, "LSN1": model.load_checkpoint}


def lsn1_u32_fields(raw: bytes) -> list:
    """Byte offsets of every u32 in an LSN1 file: V, the tensor count, and
    each tensor's name length, rank and dims."""
    fields = [4, 8]
    pos = 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        fields.append(pos)
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        dims = struct.unpack_from(f"<{rank}I", raw, pos + 4)
        fields += [pos + 4 * k for k in range(rank + 1)]
        pos += 4 * (rank + 1) + 8 * math.prod(dims)
    return fields


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """(bytes, u32 field offsets) of one small valid file per format."""
    tmp = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    features.save_features(features.FeatureSequence(data=rng.random((12, 29))), tmp / "f.lsf1")
    mesh.save_anim(mesh.DisplacementSequence(frames=rng.standard_normal((6, 5, 3))), tmp / "a.lsa1")
    model.save_checkpoint(tiny_net(), tmp / "n.lsn1")
    lsn1 = (tmp / "n.lsn1").read_bytes()
    return {
        "LSF1": ((tmp / "f.lsf1").read_bytes(), [4, 8, 12]),  # T, D, fps
        "LSA1": ((tmp / "a.lsa1").read_bytes(), [4, 8, 12]),  # T, V, fps
        "LSN1": (lsn1, lsn1_u32_fields(lsn1)),
    }


class TestContainerMutation:
    @settings(max_examples=300, deadline=None)
    @given(fmt=st.sampled_from(sorted(LOADERS)), mutations=BYTE_MUTATIONS)
    # conv1.kernels (fields 3-6: rank, then dims) as 0 x 2**31 x 2**31: no payload, far too big to reshape
    @example(fmt="LSN1", mutations=[("u32", 4, 0), ("u32", 5, 2**31), ("u32", 6, 2**31)])
    @example(fmt="LSN1", mutations=[("u32", 3, 0)])
    @example(fmt="LSF1", mutations=[("u32", 0, 0)])
    @example(fmt="LSA1", mutations=[("u32", 1, 2**32 - 1)])
    def test_loader_returns_or_raises_lipsync_error(self, valid_files, tmp_path_factory, fmt, mutations):
        raw, u32_fields = valid_files[fmt]
        path = tmp_path_factory.mktemp("mutated") / "file"
        path.write_bytes(mutate(raw, mutations, u32_fields))
        try:
            LOADERS[fmt](path)
        except LipSyncError:
            pass

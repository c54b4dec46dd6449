import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotsize.errors import ModelFormatError
from lotsize.nn import (
    BiLstmModel,
    Standardizer,
    bilstm_forward,
    load_model,
    save_model,
)
from lotsize.nn.model_io import MAGIC


@pytest.fixture
def model():
    std = Standardizer(mean=np.array([1.0, 2.0, 3.0, 4.0]), std=np.array([1.0, 1.0, 2.0, 2.0]))
    return BiLstmModel.initialize(
        layer_count=2, width=4, dropout_rate=0.2, input_size=4, seed=17, standardizer=std
    )


class TestRoundTrip:
    def test_parameters_identical(self, model, tmp_path):
        path = save_model(model, tmp_path / "model.bin")
        loaded = load_model(path)
        for name, value in model.parameters().items():
            assert np.array_equal(loaded.parameters()[name], value)
        assert loaded.layer_count == 2
        assert loaded.width == 4
        assert loaded.dropout_rate == 0.2
        assert np.array_equal(loaded.standardizer.mean, model.standardizer.mean)
        assert np.array_equal(loaded.standardizer.std, model.standardizer.std)

    def test_forward_identical(self, model, tmp_path, rng):
        path = save_model(model, tmp_path / "model.bin")
        loaded = load_model(path)
        feats = rng.normal(size=(9, 4))
        assert np.array_equal(bilstm_forward(model, feats), bilstm_forward(loaded, feats))


class TestManifest:
    def test_lists_every_tensor_with_checksum(self, model, tmp_path):
        path = save_model(model, tmp_path / "model.bin")
        manifest = (tmp_path / "model.bin.manifest.txt").read_text().strip().splitlines()
        params = model.parameters()
        assert len(manifest) == len(params)
        for line in manifest:
            name, shape, digest = line.split()
            arr = params[name]
            expected_shape = "x".join(str(s) for s in arr.shape) or "scalar"
            assert shape == expected_shape
            blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            assert digest == hashlib.sha256(blob).hexdigest()


class TestFormatErrors:
    def test_version_mismatch(self, model, tmp_path):
        path = save_model(model, tmp_path / "model.bin")
        raw = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<Q", raw, len(MAGIC))[0]
        header = raw[len(MAGIC) + 8 : len(MAGIC) + 8 + header_len]
        tampered = header.replace(b'"format_version": 1', b'"format_version": 9')
        path.write_bytes(bytes(raw[: len(MAGIC) + 8]) + bytes(tampered) + bytes(raw[len(MAGIC) + 8 + header_len :]))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_tensors(self, model, tmp_path):
        path = save_model(model, tmp_path / "model.bin")
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ModelFormatError, match="truncated|trailing"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.bin")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small saved model's bytes and a directory for corrupted copies."""
    std = Standardizer(mean=np.zeros(4), std=np.ones(4))
    model = BiLstmModel.initialize(
        layer_count=1, width=2, dropout_rate=0.2, input_size=4, seed=3, standardizer=std
    )
    out = tmp_path_factory.mktemp("corrupt")
    return save_model(model, out / "model.bin").read_bytes(), out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_copy_loads_or_is_format_error(saved, data):
    raw, out = saved
    if data.draw(st.booleans(), label="truncate"):
        copy = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        copy = bytes(flipped)
    path = out / "copy.bin"
    path.write_bytes(copy)
    try:
        load_model(path)
    except ModelFormatError:
        pass

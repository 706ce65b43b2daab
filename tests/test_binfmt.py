"""Binary mmap artifact tests (``pytest -m serve_smoke``).

Property/fuzz coverage of :mod:`repro.serve.binfmt`, mirroring the
strict-decode discipline of the packed-frame codec tests: the
``write -> mmap -> CompiledPredictor`` path must be **bit-identical**
to the JSON ``artifact -> from_table`` path on randomized tables (both
directions, both strategies), the mapped views must be genuinely
zero-copy, and every corruption mode — bad magic, truncated tail,
flipped bit anywhere, garbage header, trailing bytes, the cases of
``tests/container_cases.py`` that every container schema runs — must
raise :class:`~repro.serve.ArtifactCorruptError`, never mis-decode.

Also holds the registry/sidecar regression tests: ``quarantine`` moves
the binary sidecar together with the JSON (satellite of ISSUE 7), and
``LATEST`` healing verifies survivor sidecar hashes before re-pointing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predict import predict_view
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.data.dataset import Side, TwoViewDataset
from repro.serve import (
    ArtifactCorruptError,
    ArtifactError,
    CompiledPredictor,
    ModelArtifact,
    ModelRegistry,
    map_artifact,
    verify_sidecar,
    write_compiled,
)
from repro.serve.binfmt import SIDECAR
from tests.container_cases import ContainerCorruptionCases, forge

pytestmark = pytest.mark.serve_smoke


def random_table(rng, n_left, n_right, n_rules=12) -> TranslationTable:
    rules = set()
    while len(rules) < n_rules:
        lhs = tuple(
            sorted(rng.choice(n_left, size=int(rng.integers(1, 4)), replace=False))
        )
        rhs = tuple(
            sorted(rng.choice(n_right, size=int(rng.integers(1, 4)), replace=False))
        )
        direction = ("->", "<-", "<->")[int(rng.integers(0, 3))]
        rules.add((lhs, rhs, direction))
    return TranslationTable(
        TranslationRule(lhs, rhs, direction) for lhs, rhs, direction in sorted(rules)
    )


def make_artifact(rng, n_left=17, n_right=13, n_rules=12) -> ModelArtifact:
    table = random_table(rng, n_left, n_right, n_rules)
    dataset = TwoViewDataset(
        rng.random((8, n_left)) < 0.4,
        rng.random((8, n_right)) < 0.4,
        name="binfmt-test",
    )

    class _Result:
        def __init__(self):
            self.table = table

        def summary(self):
            return {"n_rules": len(table)}

    return ModelArtifact.from_result("binfmt-test", dataset, _Result(), {})


@pytest.fixture()
def sidecar(tmp_path):
    """One written sidecar + its artifact: ``(artifact, path)``."""
    rng = np.random.default_rng(7)
    artifact = make_artifact(rng)
    path = tmp_path / "compiled.bin"
    write_compiled(artifact, path)
    return artifact, path


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("target", [Side.RIGHT, Side.LEFT])
    def test_bit_identical_to_json_path_on_random_tables(
        self, tmp_path, seed, target
    ):
        rng = np.random.default_rng(seed)
        n_left = int(rng.integers(3, 40))
        n_right = int(rng.integers(3, 40))
        n_rules = int(rng.integers(1, 20))
        artifact = make_artifact(rng, n_left, n_right, n_rules)
        path = tmp_path / "compiled.bin"
        write_compiled(artifact, path)
        mapped = map_artifact(path)
        n_source = n_left if target is Side.RIGHT else n_right
        n_target = n_right if target is Side.RIGHT else n_left
        from_map = CompiledPredictor.from_mapped(mapped, target)
        from_json = CompiledPredictor.from_table(
            artifact.table, target, n_source, n_target
        )
        assert np.array_equal(
            from_map.antecedents.words, from_json.antecedents.words
        )
        assert np.array_equal(
            from_map.consequents.words, from_json.consequents.words
        )
        batch = rng.random((31, n_source)) < 0.35
        loop = predict_view(batch, artifact.table, target, n_target, engine="loop")
        for strategy in ("blas", "packed"):
            assert np.array_equal(from_map.predict(batch, strategy=strategy), loop)

    def test_mapped_views_are_zero_copy(self, sidecar):
        __, path = sidecar
        mapped = map_artifact(path)
        raw = np.frombuffer(mapped.buffer, dtype=np.uint8)
        for target in (Side.RIGHT, Side.LEFT):
            predictor = CompiledPredictor.from_mapped(mapped, target)
            assert np.shares_memory(predictor.antecedents.words, raw)
            assert np.shares_memory(predictor.consequents.words, raw)

    def test_mapped_views_are_read_only(self, sidecar):
        __, path = sidecar
        mapped = map_artifact(path)
        words = mapped.section("R.ant_words")
        with pytest.raises((ValueError, TypeError)):
            words[0, 0] = 1

    def test_header_identity_fields(self, sidecar):
        artifact, path = sidecar
        mapped = map_artifact(path)
        assert mapped.model == artifact.name
        assert mapped.artifact_hash == artifact.content_hash
        assert mapped.n_left == artifact.n_left
        assert mapped.n_right == artifact.n_right

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(9)
        artifact = make_artifact(rng)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        assert write_compiled(artifact, first) == write_compiled(artifact, second)
        assert first.read_bytes() == second.read_bytes()

    def test_verify_sidecar_returns_prelude_hash(self, sidecar):
        __, path = sidecar
        assert verify_sidecar(path) == map_artifact(path).content_hash

    def test_unknown_section_is_artifact_error(self, sidecar):
        __, path = sidecar
        with pytest.raises(ArtifactError, match="no section"):
            map_artifact(path).section("R.nonsense")

    def test_close_refuses_while_views_live(self, sidecar):
        __, path = sidecar
        mapped = map_artifact(path)
        view = mapped.section("R.ant_words")
        with pytest.raises(BufferError):
            mapped.close()
        del view


class TestCorruption(ContainerCorruptionCases):
    """Every damaged byte pattern must raise ArtifactCorruptError.

    The container-level cases come from the suite every schema shares;
    the two below are particular to mapping a sidecar.
    """

    schema = SIDECAR

    @pytest.fixture()
    def container_file(self, sidecar):
        return sidecar[1]

    def load(self, path):
        map_artifact(path)

    def test_missing_file_is_plain_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError) as excinfo:
            map_artifact(tmp_path / "nope.bin")
        assert not isinstance(excinfo.value, ArtifactCorruptError)

    def test_forged_vocabulary_is_rejected(self, sidecar):
        """A re-signed header whose n_left no longer fits the section shapes."""
        __, path = sidecar
        forge(path, SIDECAR, lambda meta: meta.update(n_left=99))
        with pytest.raises(ArtifactCorruptError, match="inconsistent"):
            map_artifact(path)

    def test_unverified_map_still_rejects_structure_damage(self, sidecar):
        """verify=False skips the hash, not the structural validation."""
        __, path = sidecar
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactCorruptError):
            map_artifact(path, verify=False)


class TestRegistrySidecar:
    """Regressions: quarantine moves the sidecar; healing verifies it."""

    @pytest.fixture()
    def registry(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        rng = np.random.default_rng(21)
        for __ in range(3):
            registry.publish(make_artifact(rng))
        return registry

    def test_publish_writes_verified_sidecar(self, registry):
        path = registry.sidecar_path("binfmt-test", 1)
        assert path.is_file()
        verify_sidecar(path)

    def test_publish_can_skip_sidecar(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        rng = np.random.default_rng(2)
        published = registry.publish(make_artifact(rng), sidecar=False)
        assert not registry.sidecar_path(published.name, 1).exists()
        # The service then falls back to the JSON path transparently.
        assert registry.load(published.name, 1).content_hash == published.content_hash

    def test_quarantine_moves_sidecar_with_the_version(self, registry):
        sidecar_bytes = registry.sidecar_path("binfmt-test", 3).read_bytes()
        destination = registry.quarantine("binfmt-test", 3)
        assert not registry.sidecar_path("binfmt-test", 3).exists()
        moved = destination / "compiled.bin"
        assert moved.is_file() and moved.read_bytes() == sidecar_bytes
        assert registry.latest_version("binfmt-test") == 2

    def test_healing_skips_survivor_with_corrupt_sidecar(self, registry):
        """LATEST never heals onto a version whose sidecar is damaged."""
        survivor_sidecar = registry.sidecar_path("binfmt-test", 2)
        blob = bytearray(survivor_sidecar.read_bytes())
        blob[-1] ^= 0xFF
        survivor_sidecar.write_bytes(bytes(blob))
        registry.quarantine("binfmt-test", 3)
        # v3 quarantined (requested), v2 quarantined (failed sidecar
        # verification during healing) -> LATEST lands on v1.
        assert registry.latest_version("binfmt-test") == 1
        assert registry.versions("binfmt-test") == [1]
        assert len(registry.quarantined("binfmt-test")) == 2

    def test_healing_unlinks_pointer_when_nothing_survives(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        rng = np.random.default_rng(5)
        registry.publish(make_artifact(rng))
        registry.quarantine("binfmt-test", 1)
        assert registry.versions("binfmt-test") == []
        assert not (registry.model_dir("binfmt-test") / "LATEST").exists()

    def test_load_of_corrupt_json_quarantines_sidecar_too(self, registry):
        artifact_path = registry.artifact_path("binfmt-test", 3)
        artifact_path.write_text(
            artifact_path.read_text(encoding="utf-8").replace(
                "binfmt-test", "binfmt-tamp"
            ),
            encoding="utf-8",
        )
        with pytest.raises(ArtifactCorruptError):
            registry.load("binfmt-test", 3)
        assert not registry.sidecar_path("binfmt-test", 3).exists()
        assert registry.latest_version("binfmt-test") == 2

import re
from dataclasses import fields
from pathlib import Path

import pytest

import vulnminer
from vulnminer.config import Config, load_config
from vulnminer.errors import ConfigError


def test_defaults():
    cfg = load_config()
    assert cfg.tau == 0.5 and cfg.tau1 == 0.2 and cfg.alpha == 0.6
    assert cfg.backend == "deterministic"


def test_file_values(tmp_path):
    path = tmp_path / "vulnminer.conf"
    path.write_text("""# project settings
model = trained.json
tau = 0.6
max_iterations = 3
backend = remote
endpoint = http://llm.internal:8080/analyze
""")
    cfg = load_config(path)
    assert cfg.model == "trained.json"
    assert cfg.max_iterations == 3
    assert cfg.backend == "remote"


def test_env_overrides_file(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("tau = 0.6\n")
    cfg = load_config(path, env={"VULNMINER_TAU": "0.7",
                                 "VULNMINER_ENDPOINT_TOKEN": "s3cret"})
    assert cfg.tau == 0.7
    assert cfg.endpoint_token == "s3cret"


def test_cli_overrides_env(tmp_path):
    cfg = load_config(None, overrides={"seed": 42},
                      env={"VULNMINER_SEED": "7"})
    assert cfg.seed == 42


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.conf"
    for line in ("velocity = 9\n", "lambda = 0.35\n"):
        path.write_text(line)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)


def test_every_config_field_is_read():
    """A key nothing reads is dead: each field is read as ``cfg.<field>``
    in some module that imports the config."""
    package = Path(vulnminer.__file__).parent
    read: set[str] = set()
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        if re.search(r"^from \.+config import", text, re.MULTILINE):
            read.update(re.findall(r"\bcfg\.(\w+)", text))
    unread = {f.name for f in fields(Config)} - read
    assert not unread, f"config fields nothing reads: {sorted(unread)}"


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        load_config(path)


def test_range_validation():
    with pytest.raises(ConfigError):
        Config(tau=1.5)
    with pytest.raises(ConfigError):
        Config(max_iterations=0)
    with pytest.raises(ConfigError):
        Config(backend="oracle")


def test_type_coercion_errors(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("seed = notanumber\n")
    with pytest.raises(ConfigError):
        load_config(path)

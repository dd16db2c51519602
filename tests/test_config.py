"""Every YAML file the repository ships loads and builds."""

from pathlib import Path

import pytest
import yaml

from affectpipe import DatasetSpec, Pipeline, build_pipeline
from affectpipe.config import build_pipeline_spec, load_config, load_dataset_spec

REPO = Path(__file__).resolve().parents[1]
SHIPPED = sorted([*REPO.glob("configs/*.yaml"), *REPO.glob("bench/workloads/*.yaml")])


def test_shipped_yaml_found():
    assert len(SHIPPED) == 8


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(REPO)))
def test_shipped_yaml_loads_and_builds(path):
    # a run config has a dataset section; a dataset spec does not
    if "dataset" in yaml.safe_load(path.read_text(encoding="utf-8")):
        pipeline = build_pipeline(build_pipeline_spec(load_config(path)))
        assert isinstance(pipeline, Pipeline)
    else:
        assert isinstance(load_dataset_spec(path), DatasetSpec)

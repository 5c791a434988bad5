"""AI model zoo and tasksets.

- :mod:`repro.models.zoo` — the model registry (the stand-in for the
  TensorFlow Lite hosted-models repository the paper pulls from).
- :mod:`repro.models.tasks` — task instances and the paper's tasksets
  CF1/CF2 (Table II).
"""

from repro.models.tasks import AITask, TaskSet, taskset_cf1, taskset_cf2
from repro.models.zoo import ModelZoo

__all__ = [
    "AITask",
    "ModelZoo",
    "TaskSet",
    "taskset_cf1",
    "taskset_cf2",
]

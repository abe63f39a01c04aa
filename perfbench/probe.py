"""A command's fixed set-up cost, run as a fresh process and timed from outside.

    python3 perfbench/probe.py forward synthetic|<cifar10 file> <batch size> <teacher d1-d2-d3>
    python3 perfbench/probe.py tables <scores csv> <accuracy csv>

``forward`` does what ``score`` and ``search`` do before their first student:
import diswot, make the scoring batch, build the s0 teacher (``7-7-7`` for
``--teacher max``, ``9-9-9`` for ``--teacher resnet56``) and run its forward. ``tables`` does what ``rank`` does before its first statistic: import
diswot and read both tables. Only public calls are used.
"""

import sys

from diswot.arch import S0Depths, s0_space
from diswot.data import load_accuracy_csv, load_cifar_batch, read_scores_csv, synth_batch
from diswot.network import NetworkInstance
from diswot.rng import InitSpec


def main(argv: list[str]) -> int:
    kind = argv[0]
    if kind == "forward":
        source, batch_size, teacher = argv[1], int(argv[2]), S0Depths(*map(int, argv[3].split("-")))
        space = s0_space()
        if source == "synthetic":
            batch = synth_batch(batch_size, 3, space.input_hw, space.input_hw, space.num_classes, seed=0)
        else:
            batch = load_cifar_batch(source, batch_size, 0, fmt="cifar10")
        teacher = NetworkInstance(teacher, space, InitSpec(seed=0))
        teacher.activations(batch.images, batch.labels)
    elif kind == "tables":
        read_scores_csv(argv[1])
        load_accuracy_csv(argv[2])
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

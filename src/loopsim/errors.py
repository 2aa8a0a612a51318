"""Exception hierarchy shared across the simulator."""


class SimError(Exception):
    """Base class for all loopsim errors."""


class ConfigError(SimError):
    """Malformed or inconsistent configuration input (files, specs, profiles)."""


class TrainingDivergedError(SimError):
    """A learner's training loss went non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch

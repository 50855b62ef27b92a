# repro-lint: treat-as=src/repro/noise/custom_scenarios.py
"""RPR004 positive: one registration two functions deep.

The call sits inside two enclosing functions and is one defect, so it
yields exactly one finding.
"""

from repro.noise.scenarios import NoiseScenario, register_scenario


def install_later():
    def install() -> None:
        # RPR004: a re-importing pool worker never runs this
        register_scenario(NoiseScenario(name="deep", leakage_rate_2q=1e-4))

    return install

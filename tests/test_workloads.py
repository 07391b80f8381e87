from fractions import Fraction

import pytest

from tcsizer import (
    HOUR,
    INFINITE,
    MINUTE,
    MS,
    SEC,
    US,
    MissingParam,
    ScenarioId,
    builtin_system,
    period_from_frequency,
    seq,
    validate_system,
)


class TestPeriodFromFrequency:
    def test_exact_divisors(self):
        assert period_from_frequency(1) == SEC
        assert period_from_frequency(4000) == 250 * US
        assert period_from_frequency(Fraction(1, 2)) == 2 * SEC

    def test_flooring(self):
        assert period_from_frequency(3) == 333_333_333
        assert period_from_frequency(24_000) == 41_666

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            period_from_frequency(0)
        with pytest.raises(ValueError):
            period_from_frequency(2 * 10**9)


class TestBuiltinSystems:
    def test_microblog_online_shape(self):
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=4000)
        stages = list(system.stages())
        assert len(stages) == 3
        assert [s.cost for s in stages] == [127 * US, 507 * US, 511 * US]
        assert all(s.inter_arrival == 250 * US for s in stages)
        assert system.analytics[0].end_to_end_deadline == SEC

    def test_book_online_costs(self):
        system = builtin_system(ScenarioId.BOOK_ONLINE, frequency_hz=1)
        assert [s.cost for s in system.stages()] == [
            1_100 * US, 5 * MS, 800 * US]

    def test_priority_pair_scenario(self):
        system = builtin_system(ScenarioId.TABLE_VI)
        assert [a.id for a in system.analytics] == ["TC1", "TC2"]
        tc1, tc2 = system.stages()
        assert tc1.cost == tc2.cost == HOUR
        assert tc1.inter_arrival is INFINITE
        assert tc2.inter_arrival is INFINITE
        assert tc1.deadline == 2 * HOUR
        assert tc2.deadline == HOUR

    def test_offline_scenarios(self):
        costs = [4 * MINUTE, 20 * MINUTE, 10 * MINUTE, 6 * MINUTE]
        system = builtin_system(ScenarioId.MICROBLOG_OFFLINE, costs=costs)
        assert [s.cost for s in system.stages()] == costs
        assert system.analytics[0].topology == seq(
            "microblog-batch-download", "microblog-batch-map",
            "microblog-batch-reduce", "microblog-batch-sort")
        assert system.analytics[0].end_to_end_deadline == 2 * HOUR

        book = builtin_system(ScenarioId.BOOK_OFFLINE,
                              costs=[MINUTE, MINUTE, MINUTE, MINUTE])
        assert book.analytics[0].end_to_end_deadline == 10 * MINUTE

    def test_offline_without_costs(self):
        with pytest.raises(MissingParam):
            builtin_system(ScenarioId.BOOK_OFFLINE)

    def test_offline_with_the_wrong_number_of_costs(self):
        with pytest.raises(ValueError) as exc:
            builtin_system(ScenarioId.MICROBLOG_OFFLINE, costs=[MINUTE] * 3)
        assert type(exc.value) is MissingParam
        assert str(exc.value) == "microblog-batch: expected 4 costs, got 3"

    def test_online_without_frequency(self):
        with pytest.raises(MissingParam):
            builtin_system(ScenarioId.MICROBLOG_ONLINE)

    @pytest.mark.parametrize("scenario", ["microblog-online", None, 0])
    def test_not_a_scenario_id(self, scenario):
        with pytest.raises(ValueError) as exc:
            builtin_system(scenario, frequency_hz=1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"unknown scenario {scenario!r}"

    @pytest.mark.parametrize("scenario, params", [
        (ScenarioId.MICROBLOG_ONLINE, {"frequency_hz": 1}),
        (ScenarioId.MICROBLOG_ONLINE, {"frequency_hz": 4000}),
        (ScenarioId.MICROBLOG_ONLINE, {"frequency_hz": 1000,
                                       "blocking": 20 * US}),
        (ScenarioId.BOOK_ONLINE, {"frequency_hz": 40_000}),
        (ScenarioId.MICROBLOG_OFFLINE, {"costs": [MINUTE] * 4}),
        (ScenarioId.BOOK_OFFLINE, {"costs": [MINUTE] * 4}),
        (ScenarioId.TABLE_VI, {}),
    ])
    def test_all_builtins_validate(self, scenario, params):
        assert validate_system(builtin_system(scenario, **params)).ok

    def test_pure_function_of_params(self):
        a = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=250)
        b = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=250)
        assert a == b

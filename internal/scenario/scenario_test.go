package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

func f64(v float64) *float64 { return &v }
func i64(v int64) *int64     { return &v }

func TestValidateAccepts(t *testing.T) {
	s := &Scenario{
		Name:  "ok",
		Churn: &Churn{JoinsPerRound: 2, LeavesPerRound: 2, StartRound: 5, EndRound: 90},
		Link:  &Link{JitterMs: 30, Loss: 0.1},
		Events: []Event{
			{Round: 10, Kind: KindFlashCrowd, Count: 50},
			{Round: 20, Kind: KindFlashCrowd, Fraction: 0.25},
			{Round: 30, Kind: KindMassLeave, Fraction: 0.5},
			{Round: 40, Kind: KindGatewayFailure, Groups: 3},
			{Round: 50, Kind: KindNATShift, NATRatio: f64(0.9), Mix: &Mix{RC: 0.2, PRC: 0.3, SYM: 0.5}},
			{Round: 60, Kind: KindPartition, Fraction: 0.3, DurationRounds: 10},
			{Round: 80, Kind: KindHeal},
			{Round: 85, Kind: KindSetLink, JitterMs: i64(0), Loss: f64(0)},
			{Round: 86, Kind: KindSetLink, JitterMs: i64(MaxJitterMs)},
		},
	}
	if err := s.Validate(100); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		s    *Scenario
		want string
	}{
		{"loss-one", &Scenario{Link: &Link{Loss: 1.0}}, "loss"},
		{"loss-above", &Scenario{Link: &Link{Loss: 1.5}}, "loss"},
		{"negative-jitter", &Scenario{Link: &Link{JitterMs: -1}}, "jitter"},
		// Past the cap an arrival time could wrap the int64 clock; at the
		// int64 maximum the jitter draw panicked in Int63n.
		{"jitter-past-cap", &Scenario{Link: &Link{JitterMs: MaxJitterMs + 1}}, "jitter_ms 3600001"},
		{"jitter-int64-max", &Scenario{Link: &Link{JitterMs: math.MaxInt64}}, "jitter_ms 9223372036854775807"},
		{"set-link-jitter-int64-max", &Scenario{Events: []Event{{Round: 1, Kind: KindSetLink, JitterMs: i64(math.MaxInt64)}}}, "jitter_ms 9223372036854775807"},
		{"negative-rate", &Scenario{Churn: &Churn{JoinsPerRound: -1}}, "rates"},
		{"rate-saturates-poisson", &Scenario{Churn: &Churn{LeavesPerRound: 2000}}, "flash_crowd"},
		{"churn-start-past-horizon", &Scenario{Churn: &Churn{JoinsPerRound: 1, StartRound: 100}}, "start_round"},
		{"event-past-horizon", &Scenario{Events: []Event{{Round: 100, Kind: KindHeal}}}, "horizon"},
		{"event-round-zero", &Scenario{Events: []Event{{Round: 0, Kind: KindHeal}}}, "horizon"},
		{"unknown-kind", &Scenario{Events: []Event{{Round: 1, Kind: "meteor_strike"}}}, "unknown kind"},
		{"flash-crowd-empty", &Scenario{Events: []Event{{Round: 1, Kind: KindFlashCrowd}}}, "count"},
		{"mass-leave-all", &Scenario{Events: []Event{{Round: 1, Kind: KindMassLeave, Fraction: 1}}}, "fraction"},
		{"partition-no-fraction", &Scenario{Events: []Event{{Round: 1, Kind: KindPartition}}}, "fraction"},
		{"partition-negative-duration", &Scenario{Events: []Event{{Round: 1, Kind: KindPartition, Fraction: 0.5, DurationRounds: -2}}}, "duration"},
		{"gateway-no-groups", &Scenario{Events: []Event{{Round: 1, Kind: KindGatewayFailure}}}, "groups"},
		{"shift-empty", &Scenario{Events: []Event{{Round: 1, Kind: KindNATShift}}}, "nat_ratio"},
		{"shift-bad-mix", &Scenario{Events: []Event{{Round: 1, Kind: KindNATShift, Mix: &Mix{RC: 1, PRC: 1}}}}, "sum"},
		{"set-link-lossy", &Scenario{Events: []Event{{Round: 1, Kind: KindSetLink, Loss: f64(1)}}}, "loss"},
		// NaN fails every ordered comparison, so only negated range checks
		// reject it; a NaN that passed made the config unmarshalable.
		{"flash-crowd-nan", &Scenario{Events: []Event{{Round: 1, Kind: KindFlashCrowd, Fraction: math.NaN()}}}, "fraction NaN"},
		{"mass-leave-nan", &Scenario{Events: []Event{{Round: 1, Kind: KindMassLeave, Fraction: math.NaN()}}}, "fraction NaN"},
		{"partition-nan", &Scenario{Events: []Event{{Round: 1, Kind: KindPartition, Fraction: math.NaN()}}}, "fraction NaN"},
		{"shift-nan-ratio", &Scenario{Events: []Event{{Round: 1, Kind: KindNATShift, NATRatio: f64(math.NaN())}}}, "nat_ratio NaN"},
		{"shift-nan-mix", &Scenario{Events: []Event{{Round: 1, Kind: KindNATShift, Mix: &Mix{RC: math.NaN(), PRC: 0.5, SYM: 0.5}}}}, "sum to NaN"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate(100)
			if err == nil {
				t.Fatalf("invalid scenario accepted: %+v", c.s)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestQuiescent(t *testing.T) {
	var nilScenario *Scenario
	if !nilScenario.Quiescent() {
		t.Error("nil scenario not quiescent")
	}
	if !(&Scenario{Name: "idle", GatewayGroupSize: 4}).Quiescent() {
		t.Error("empty scenario not quiescent")
	}
	if (&Scenario{Churn: &Churn{}}).Quiescent() {
		t.Error("scenario with churn model reported quiescent")
	}
	if (&Scenario{Events: []Event{{Round: 1, Kind: KindHeal}}}).Quiescent() {
		t.Error("scenario with events reported quiescent")
	}
}

func TestNeedsLinkPolicy(t *testing.T) {
	if (&Scenario{}).NeedsLinkPolicy() {
		t.Error("empty scenario wants a link policy")
	}
	if !(&Scenario{Link: &Link{Loss: 0.1}}).NeedsLinkPolicy() {
		t.Error("initial link model ignored")
	}
	if !(&Scenario{Events: []Event{{Round: 5, Kind: KindSetLink, Loss: f64(0.1)}}}).NeedsLinkPolicy() {
		t.Error("set_link event ignored")
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := &Scenario{
		Name:             "rt",
		Churn:            &Churn{JoinsPerRound: 1.5, LeavesPerRound: 2.5, StartRound: 3},
		Link:             &Link{JitterMs: 20, Loss: 0.05},
		GatewayGroupSize: 16,
		Events: []Event{
			{Round: 7, Kind: KindPartition, Fraction: 0.4, DurationRounds: 5},
			{Round: 20, Kind: KindSetLink, JitterMs: i64(5), Loss: f64(0.2)},
		},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Errorf("round trip changed scenario:\n in: %s\nout: %s", data, back)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","chrun":{}}`)); err == nil {
		t.Error("typo'd field accepted")
	}
	if _, err := Parse([]byte(`{"events":[{"round":1,"kind":"heal","frction":0.5}]}`)); err == nil {
		t.Error("typo'd event field accepted")
	}
}

// TestPoissonDeterministicAndCalibrated checks the sampler is a pure
// function of the RNG stream and that its empirical mean and variance match
// the distribution (both ≈ λ).
func TestPoissonDeterministicAndCalibrated(t *testing.T) {
	a, b := xrand.New(7), xrand.New(7)
	for i := 0; i < 1000; i++ {
		if Poisson(a, 3.5) != Poisson(b, 3.5) {
			t.Fatal("same RNG stream produced different Poisson draws")
		}
	}

	rng := xrand.New(11)
	const n, lambda = 20000, 4.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		k := float64(Poisson(rng, lambda))
		sum += k
		sumSq += k * k
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-lambda) > 0.1 {
		t.Errorf("Poisson mean %v, want ≈ %v", mean, lambda)
	}
	if math.Abs(variance-lambda) > 0.3 {
		t.Errorf("Poisson variance %v, want ≈ %v", variance, lambda)
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("non-positive rate must draw 0")
	}
}

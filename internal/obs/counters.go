package obs

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Counter names one row of the runtime counter table.
type Counter uint8

// The table's rows. Order is the /metrics and exit-report order.
const (
	ReplaceChecks Counter = iota
	ReplaceTriggers
	ReplaceMigrations
	ReplaceMoves
	ReplaceCostSkips
	ReplaceCooldown
	ReplaceLastStep
	ReplaceSavingsNanos
	ReplaceMoveCostNanos

	CkptWrites
	CkptSkips
	CkptFailures
	CkptGeneration
	CkptLastBytes
	CkptLastWriteNanos
	CkptTotalWriteNanos
	CkptResumeNanos
	CkptResumeGeneration

	TrafficBytesTo
	TrafficBytesFrom
	TrafficTokensTo
	TrafficTokensFrom
	TrafficFrames

	HeartbeatsAnswered
	HeartbeatsMissed
	RecvTimeouts
	RecvRetries
	StaleReplies
	DuplicateReplies
	StepRetries
	WorkerFailovers
	ExpertsRecovered
	Snapshots
	WorkerRejoins

	BaseKeyed
	BaseFull
	BaseMisses

	numCounters
)

// group is the subsystem a row belongs to: one exit-report line, and the
// unit of the idle rule.
type group uint8

const (
	groupReplace group = iota
	groupCkpt
	groupTraffic
	groupRecovery
	groupBases
	numGroups
)

var groupNames = [numGroups]string{"re-placement", "checkpoints", "traffic", "recovery", "bases"}

// desc is one row's description; everything the two writers print comes
// from here.
type desc struct {
	group group
	// family is the Prometheus family, help its # HELP text. A row with an
	// empty family is one more labelled sample of the family above it.
	// The # TYPE follows the naming convention: *_total is a counter,
	// anything else a gauge.
	family, help string
	// labels is the row's constant label pair; perWorker rows hold one
	// value per worker and get worker="n" in front of it.
	labels    string
	perWorker bool
	// nanos rows are stored in nanoseconds and written in seconds.
	nanos bool
	// init is the value the row starts at.
	init int64
	// noun names the value in the exit report.
	noun string
}

// table describes every runtime counter and gauge the master keeps. To
// add one: a constant above and a row here. Add/Set/Get, WriteMetrics
// and WriteReport all work from the row; nothing else changes.
//
// Idle rule, for both writers: a group is written once any of its rows
// has left its initial value. Until then the subsystem is not running
// (no controller wired, no checkpoint written, no frame exchanged) and
// exporting its zeros would read as a measurement.
var table = [numCounters]desc{
	ReplaceChecks:        {group: groupReplace, family: "vela_replace_checks_total", help: "Re-placement controller step-boundary signal evaluations.", noun: "checks"},
	ReplaceTriggers:      {group: groupReplace, family: "vela_replace_triggers_total", help: "Hysteresis-confirmed triggers (placement re-solved).", noun: "triggers"},
	ReplaceMigrations:    {group: groupReplace, family: "vela_replace_migrations_total", help: "Executed live migration plans.", noun: "migrations"},
	ReplaceMoves:         {group: groupReplace, family: "vela_replace_moves_total", help: "Experts moved across all executed plans.", noun: "experts moved"},
	ReplaceCostSkips:     {group: groupReplace, family: "vela_replace_cost_skips_total", help: "Re-solves discarded because predicted savings did not cover the migration cost.", noun: "cost skips"},
	ReplaceCooldown:      {group: groupReplace, family: "vela_replace_cooldown_steps", help: "Steps of post-migration cooldown remaining.", noun: "cooldown steps left"},
	ReplaceLastStep:      {group: groupReplace, family: "vela_replace_last_migration_step", help: "Step of the last executed migration (-1 before the first).", init: -1, noun: "last migration step"},
	ReplaceSavingsNanos:  {group: groupReplace, family: "vela_replace_decision_seconds", help: "Latest re-solve economics: predicted comm savings per step vs one-time migration cost.", labels: `kind="savings_per_step"`, nanos: true, noun: "predicted savings (s/step)"},
	ReplaceMoveCostNanos: {group: groupReplace, labels: `kind="move_cost"`, nanos: true, noun: "move cost (s)"},

	CkptWrites:           {group: groupCkpt, family: "vela_ckpt_writes_total", help: "Run-level checkpoint generations durably written.", noun: "written"},
	CkptSkips:            {group: groupCkpt, family: "vela_ckpt_skips_total", help: "Step boundaries skipped because a checkpoint write was in flight.", noun: "skipped (writer busy)"},
	CkptFailures:         {group: groupCkpt, family: "vela_ckpt_failures_total", help: "Run-level checkpoint write attempts that errored.", noun: "failed"},
	CkptGeneration:       {group: groupCkpt, family: "vela_ckpt_generation", help: "Newest durably written run-checkpoint generation.", noun: "newest generation"},
	CkptLastBytes:        {group: groupCkpt, family: "vela_ckpt_last_bytes", help: "Encoded size of the newest generation.", noun: "newest bytes"},
	CkptLastWriteNanos:   {group: groupCkpt, family: "vela_ckpt_write_seconds", help: "Wall seconds of checkpoint writes: newest generation vs cumulative.", labels: `kind="last"`, nanos: true, noun: "newest write (s)"},
	CkptTotalWriteNanos:  {group: groupCkpt, labels: `kind="total"`, nanos: true, noun: "all writes (s)"},
	CkptResumeNanos:      {group: groupCkpt, family: "vela_ckpt_resume_seconds", help: "Wall seconds the last run-level resume took (0 = fresh run).", nanos: true, noun: "resume (s)"},
	CkptResumeGeneration: {group: groupCkpt, family: "vela_ckpt_resume_generation", help: "Generation the last resume reconstructed from.", noun: "resumed generation"},

	TrafficBytesTo:    {group: groupTraffic, family: "vela_traffic_bytes_total", help: "Logical bytes exchanged with each worker.", labels: `direction="to_worker"`, perWorker: true, noun: "bytes out"},
	TrafficBytesFrom:  {group: groupTraffic, labels: `direction="from_worker"`, perWorker: true, noun: "bytes in"},
	TrafficTokensTo:   {group: groupTraffic, family: "vela_traffic_tokens_total", help: "Token-copies exchanged with each worker.", labels: `direction="to_worker"`, perWorker: true, noun: "token copies out"},
	TrafficTokensFrom: {group: groupTraffic, labels: `direction="from_worker"`, perWorker: true, noun: "token copies in"},
	TrafficFrames:     {group: groupTraffic, family: "vela_traffic_messages_total", help: "Messages exchanged with each worker.", perWorker: true, noun: "frames"},

	HeartbeatsAnswered: {group: groupRecovery, family: "vela_recovery_heartbeats_total", help: "Supervisor heartbeat probes by outcome.", labels: `outcome="answered"`, noun: "heartbeats answered"},
	HeartbeatsMissed:   {group: groupRecovery, labels: `outcome="missed"`, noun: "missed"},
	RecvTimeouts:       {group: groupRecovery, family: "vela_recovery_recv_timeouts_total", help: "Reply deadlines that expired.", noun: "recv timeouts"},
	RecvRetries:        {group: groupRecovery, family: "vela_recovery_recv_retries_total", help: "Bounded in-round reply-wait retries.", noun: "recv retries"},
	StaleReplies:       {group: groupRecovery, family: "vela_recovery_stale_replies_total", help: "Replies from abandoned rounds discarded.", noun: "stale replies"},
	DuplicateReplies:   {group: groupRecovery, family: "vela_recovery_duplicate_replies_total", help: "Duplicate-Seq replies discarded.", noun: "duplicate replies"},
	StepRetries:        {group: groupRecovery, family: "vela_recovery_step_retries_total", help: "Training steps re-driven after recovery.", noun: "step retries"},
	WorkerFailovers:    {group: groupRecovery, family: "vela_recovery_worker_failovers_total", help: "Workers declared dead and failed over.", noun: "worker failovers"},
	ExpertsRecovered:   {group: groupRecovery, family: "vela_recovery_experts_recovered_total", help: "Experts restored onto survivors from snapshots.", noun: "experts restored"},
	Snapshots:          {group: groupRecovery, family: "vela_recovery_snapshots_total", help: "Completed expert-state checkpoint pulls.", noun: "snapshots"},
	WorkerRejoins:      {group: groupRecovery, family: "vela_recovery_worker_rejoins_total", help: "Dead workers re-admitted after a successful rejoin handshake.", noun: "worker rejoins"},

	BaseKeyed:  {group: groupBases, family: "vela_base_installs_total", help: "Expert installs (MsgAssign) by how the frozen base travelled.", labels: `shipped="key"`, noun: "installs by key"},
	BaseFull:   {group: groupBases, labels: `shipped="full"`, noun: "full entries"},
	BaseMisses: {group: groupBases, family: "vela_base_misses_total", help: "Keyed installs a worker answered with a base miss.", noun: "misses"},
}

// Counters is the atomic store behind the table: one int64 per row, one
// per worker for the perWorker rows. Every method is safe for concurrent
// use, allocation-free and a no-op (or zero) on a nil receiver, so the
// runtime records unconditionally and an unmetered executor pays one
// branch.
type Counters struct {
	vals      [numCounters][]atomic.Int64
	crossNode []bool
}

// NewCounters builds the table for len(crossNode) workers; crossNode[n]
// marks the workers outside the master's node, whose traffic is the
// paper's "external traffic".
func NewCounters(crossNode []bool) *Counters {
	c := &Counters{crossNode: append([]bool(nil), crossNode...)}
	for k := range c.vals {
		slots := 1
		if table[k].perWorker {
			slots = len(crossNode)
		}
		c.vals[k] = make([]atomic.Int64, slots)
		if table[k].init != 0 {
			c.vals[k][0].Store(table[k].init)
		}
	}
	return c
}

// Nanos converts seconds to the unit of the table's nanos rows, rounding
// to the nearest nanosecond and saturating where int64 ends (the
// re-placement controller's savings are +Inf when the current layout is
// infeasible).
func Nanos(seconds float64) int64 {
	ns := math.Round(seconds * 1e9)
	switch {
	case ns >= math.MaxInt64:
		return math.MaxInt64
	case ns <= math.MinInt64:
		return math.MinInt64
	}
	return int64(ns)
}

// Add advances row k by v.
func (c *Counters) Add(k Counter, v int64) { c.AddWorker(k, 0, v) }

// AddWorker advances worker n's slot of perWorker row k by v. An
// out-of-range worker is dropped, like the Handle's per-worker hooks.
func (c *Counters) AddWorker(k Counter, n int, v int64) {
	if c == nil || uint(n) >= uint(len(c.vals[k])) {
		return
	}
	c.vals[k][n].Add(v)
}

// Set publishes gauge row k.
func (c *Counters) Set(k Counter, v int64) {
	if c == nil {
		return
	}
	c.vals[k][0].Store(v)
}

// Get reads row k, summed over workers for a perWorker row.
func (c *Counters) Get(k Counter) int64 {
	if c == nil {
		return table[k].init
	}
	var s int64
	for n := range c.vals[k] {
		s += c.vals[k][n].Load()
	}
	return s
}

// Worker reads worker n's slot of perWorker row k (slot 0 of any other).
func (c *Counters) Worker(k Counter, n int) int64 {
	if c == nil || uint(n) >= uint(len(c.vals[k])) {
		return 0
	}
	return c.vals[k][n].Load()
}

// CrossNodeBytes returns the bytes exchanged with cross-node workers in
// both directions — the paper's "external traffic".
func (c *Counters) CrossNodeBytes() int64 {
	if c == nil {
		return 0
	}
	var s int64
	for n, cross := range c.crossNode {
		if cross {
			s += c.Worker(TrafficBytesTo, n) + c.Worker(TrafficBytesFrom, n)
		}
	}
	return s
}

// active applies the table's idle rule to group g.
func (c *Counters) active(g group) bool {
	for k := range c.vals {
		if table[k].group != g {
			continue
		}
		for n := range c.vals[k] {
			if c.vals[k][n].Load() != table[k].init {
				return true
			}
		}
	}
	return false
}

// printed converts row k's stored value to the unit the writers print.
func printed(k Counter, v int64) float64 {
	if table[k].nanos {
		return float64(v) / 1e9
	}
	return float64(v)
}

// writeProm writes every active group's families in exposition format.
func (c *Counters) writeProm(pw *promWriter) {
	if c == nil {
		return
	}
	for k := Counter(0); k < numCounters; k++ {
		d := &table[k]
		if d.family == "" || !c.active(d.group) {
			continue
		}
		typ := "gauge"
		if strings.HasSuffix(d.family, "_total") {
			typ = "counter"
		}
		pw.header(d.family, typ, d.help)
		end := k + 1
		for end < numCounters && table[end].family == "" {
			end++
		}
		for n := range c.vals[k] {
			for r := k; r < end; r++ {
				labels := table[r].labels
				if d.perWorker {
					labels = strings.TrimSuffix(`worker="`+strconv.Itoa(n)+`",`+labels, ",")
				}
				pw.sample(d.family, labels, printed(r, c.Worker(r, n)))
			}
		}
	}
}

// writeReport prints the counting half of WriteReport: one "group: noun
// value, ..." line per active group, every row summed over workers, plus
// the cross-node share of the traffic.
func (c *Counters) writeReport(pw *promWriter) {
	if c == nil {
		return
	}
	for g, name := range groupNames {
		if !c.active(group(g)) {
			continue
		}
		sep := name + ": "
		for k := Counter(0); k < numCounters; k++ {
			if table[k].group != group(g) {
				continue
			}
			pw.printf("%s%s %s", sep, table[k].noun, strconv.FormatFloat(printed(k, c.Get(k)), 'f', -1, 64))
			sep = ", "
		}
		if group(g) == groupTraffic {
			pw.printf(", cross-node MB %.2f", float64(c.CrossNodeBytes())/1e6)
		}
		pw.printf("\n")
	}
}

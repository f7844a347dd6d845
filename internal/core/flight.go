package core

import (
	"repro/internal/obs/flightrec"
)

// AttachFlight binds a flight recorder to an assembled system: the fault
// schedule arms the window trigger, and the engine's latency collector (if
// one was attached with AttachLatency) feeds the SLO-burn trigger and the
// in-flight span table. Run.Tick then advances the recorder at slice
// boundaries. A nil recorder leaves the system untouched.
//
// Call after BuildSystem and AttachLatency, before the first Run.
func AttachFlight(sys *System, rec *flightrec.Recorder) {
	if rec == nil {
		return
	}
	sys.Flight = rec
	rec.SetSchedule(sys.Params.FaultSchedule)
	rec.SetCollector(sys.Engine.ReqTrace())
}

package server

import (
	"testing"

	"jasworkload/internal/isa"
	"jasworkload/internal/jvm"
)

// BenchmarkTraceEmit times the trace emitter alone: one iteration streams
// the full instruction stream (detail fraction 1) of one request into a
// CountingSink, cycling through every request class and the background
// phase. The requests' request-level work (DB, allocation, JIT) is done
// once up front, so ns/instr is the emission layer's own cost.
func BenchmarkTraceEmit(b *testing.B) {
	s := rig(b, 5)
	type request struct {
		rt      RequestType
		res     Result
		methods []jvm.MethodID
		cluster []jvm.ObjID
	}
	var reqs []request
	for rt := RequestType(0); rt < numRequestTypes; rt++ {
		res, err := s.Execute(0, rt, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		sc := s.app.Classes[rt]
		cluster, err := s.allocCluster(sc, &Result{})
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, request{rt, res, s.drawMethods(rt, sc.MethodCalls), cluster})
	}
	var sink isa.CountingSink
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &reqs[i%len(reqs)]
		s.emitter.emitRequest(&sink, r.rt, r.res, r.methods, r.cluster, 1, float64(i%64)*600)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.Total), "ns/instr")
}

package core

import "github.com/tracesynth/rostracer/internal/trace"

// OracleExtractModel exposes the batch test oracle to package core_test.
var OracleExtractModel = oracleExtractModel

// OracleSynthesize is Synthesize over the batch test oracle.
func OracleSynthesize(tr *trace.Trace) *DAG { return BuildDAG(oracleExtractModel(tr)) }

// RequireSameModel fails unless two models are deeply identical.
var RequireSameModel = requireSameModel

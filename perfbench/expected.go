package main

// Expected outputs for the default seed (1), recorded from 1-worker
// runs and confirmed equal at 2 workers. After an intentional change
// to simulated results, re-record them as README.md describes.

// paperExpected holds each paper call's result digest and the pass's
// simulated tick count.
var paperExpected = struct {
	digests map[string]string
	ticks   int64
}{
	digests: map[string]string{
		"characterize": "3209a440649b36f4",
		"fig1":         "598f544f1c717e2f",
		"fig2":         "026523f32316eff6",
		"table1":       "9f9c207f211bb36c",
		"table2":       "81635360a782cb0f",
		"table3":       "81ad4512728d7240",
		"table4":       "826c432704904379",
		"fig5":         "d7529108db203ba8",
		"fig6":         "58c9f9ff3094300c",
		"fig7":         "af0d15f8dad92bfa",
		"adherence":    "fcb5e145b7d6dcdd",
		"fig8":         "14a08b19540f84d2",
		"fig9":         "ab5921da4c6efa06",
		"fig10":        "acfa7daff8e9a587",
		"fig11":        "bdb31723976c4536",
		"baselines":    "9da791b10fc78a6c",
		"seeds":        "cab095738777aa1e",
		"scorecard":    "c346ad000b2292d8",
	},
	ticks: 2675118,
}

const (
	fleetExpected        = "ac95b92e0a6d7ab5"
	fleetControlExpected = "9b2fedf2c85c70e4"
)

package main

// expected holds every simulation's report fingerprint and barrier count
// per workload, for the default seed 0 and the held-out seed 1009. A
// round whose fingerprints differ fails; regenerate an entry only after an
// intended change to the timing model, from the "# fingerprint" lines a
// run with an unknown seed prints.
var expected = map[string]map[int64]map[string]string{
	"hotspot-csw": {
		0: {
			"SYNTH/CSW": "9c424e8e80edfb43 barriers=20",
		},
		1009: {
			"SYNTH/CSW": "9c424e8e80edfb43 barriers=20",
		},
	},
	"kernels-gl": {
		0: {
			"EM3D/GL":  "c4a16cb8cfafca12 barriers=40",
			"KERN2/GL": "acb7d9a1c18171d4 barriers=80",
			"KERN3/GL": "3f532eff4dfe8243 barriers=20",
			"KERN6/GL": "529f84a7c7241180 barriers=310",
			"OCEAN/GL": "4200bb5c5471c222 barriers=28",
			"UNSTR/GL": "309d33ba914b8b4f barriers=10",
		},
		1009: {
			"EM3D/GL":  "ae96a49f7ea02f8e barriers=40",
			"KERN2/GL": "acb7d9a1c18171d4 barriers=80",
			"KERN3/GL": "3f532eff4dfe8243 barriers=20",
			"KERN6/GL": "529f84a7c7241180 barriers=310",
			"OCEAN/GL": "4200bb5c5471c222 barriers=28",
			"UNSTR/GL": "582cf0ac43a1fed3 barriers=10",
		},
	},
	"glsimd-sweep": {
		0: {
			"KERN2/DSW/16": "dfd9c34e7af22437 barriers=21",
			"KERN2/DSW/32": "1fdccd983214c233 barriers=21",
			"KERN2/GL/16":  "823f405bd48b41cf barriers=21",
			"KERN2/GL/32":  "ecab5753bbda2680 barriers=21",
			"KERN3/DSW/16": "39b964fd034bd11c barriers=6",
			"KERN3/DSW/32": "5e02ee87e94c1a06 barriers=6",
			"KERN3/GL/16":  "7378b665e14ba632 barriers=6",
			"KERN3/GL/32":  "34c89b8dea1b47e4 barriers=6",
			"KERN6/DSW/16": "27e3d8f42fa0ce58 barriers=92",
			"KERN6/DSW/32": "96fc5a4538d6a096 barriers=92",
			"KERN6/GL/16":  "3d7391a8c8894e0f barriers=92",
			"KERN6/GL/32":  "61928dd7bb70c251 barriers=92",
			"OCEAN/DSW/16": "24c50799b60b459e barriers=14",
			"OCEAN/DSW/32": "ef73503ed1f46d95 barriers=14",
			"OCEAN/GL/16":  "f49109db6c0d934c barriers=14",
			"OCEAN/GL/32":  "1dbcd2da37e66ef9 barriers=14",
			"UNSTR/DSW/16": "9f75059c2cb80263 barriers=4",
			"UNSTR/DSW/32": "feb067f72cb72ccb barriers=4",
			"UNSTR/GL/16":  "1760f55a9f0109f9 barriers=4",
			"UNSTR/GL/32":  "fd611ea2b53cb321 barriers=4",
		},
		1009: {
			"KERN2/DSW/16/seed1009": "dfd9c34e7af22437 barriers=21",
			"KERN2/DSW/32/seed1009": "1fdccd983214c233 barriers=21",
			"KERN2/GL/16/seed1009":  "823f405bd48b41cf barriers=21",
			"KERN2/GL/32/seed1009":  "ecab5753bbda2680 barriers=21",
			"KERN3/DSW/16/seed1009": "39b964fd034bd11c barriers=6",
			"KERN3/DSW/32/seed1009": "5e02ee87e94c1a06 barriers=6",
			"KERN3/GL/16/seed1009":  "7378b665e14ba632 barriers=6",
			"KERN3/GL/32/seed1009":  "34c89b8dea1b47e4 barriers=6",
			"KERN6/DSW/16/seed1009": "27e3d8f42fa0ce58 barriers=92",
			"KERN6/DSW/32/seed1009": "96fc5a4538d6a096 barriers=92",
			"KERN6/GL/16/seed1009":  "3d7391a8c8894e0f barriers=92",
			"KERN6/GL/32/seed1009":  "61928dd7bb70c251 barriers=92",
			"OCEAN/DSW/16/seed1009": "24c50799b60b459e barriers=14",
			"OCEAN/DSW/32/seed1009": "ef73503ed1f46d95 barriers=14",
			"OCEAN/GL/16/seed1009":  "f49109db6c0d934c barriers=14",
			"OCEAN/GL/32/seed1009":  "1dbcd2da37e66ef9 barriers=14",
			"UNSTR/DSW/16/seed1009": "931c22c3efee3a2f barriers=4",
			"UNSTR/DSW/32/seed1009": "93a398648381e0f0 barriers=4",
			"UNSTR/GL/16/seed1009":  "30e77c76b6b5a11b barriers=4",
			"UNSTR/GL/32/seed1009":  "12c273ca7805d679 barriers=4",
		},
	},
}

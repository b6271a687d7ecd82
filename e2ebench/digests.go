// Code generated by e2ebench -record-digests; DO NOT EDIT.

package main

// digests maps campaign seed -> experiment id -> sha256 of the table
// rendered at the campaign fidelity (100+400 cycles).
var digests = map[uint64]map[string]string{
	1: {
		"fig10":          "69f19caf040ad23ed757615ad929d586dec020fd190f5088f36647ecfd095510",
		"table4-ci":      "c0e38759b7701dd0106292eabc31a7aa25b06ab71256087b33d2070e92da906d",
		"sched-shootout": "b8e6c46a04da04527dabdeed67a1c540556181310de18999d9264808e8696ee7",
		"fabric":         "f8ea7fc0e6eefb028f6aafce101c12cf807ff380c30fb2e72943e65d4c04d1bf",
	},
	2: {
		"fig10":          "5e727338114142b3edf53278bff8b3ad3586bfd8f6367c52964cb4c28ca82a38",
		"table4-ci":      "33c34be43c308291cd025e741a30b6b7cdbffc7d338dcef6e123419b27fbf1d6",
		"sched-shootout": "313972d9d1757b4e15fae358ba5ecc16c5d7e7247d0f82704d15849101c905f4",
		"fabric":         "5f537ce6e4d5987bbdc30c7348fa159f0e847f926287192acacaf502efa9f7e8",
	},
	3: {
		"fig10":          "97d3766878d5d79d9567739217db1b63ac691e49919a142df1387f90f69ae4d6",
		"table4-ci":      "d53fb6deb395d0aa48b1c4c5c675823361bfb1bb355d68d632016991d1fb6ab9",
		"sched-shootout": "79d4ff7bc3f00dde6b0f1076594a4ac6f0b0ea959e01a02cf0c74ccbd463ba04",
		"fabric":         "3cb7fb4ac498ca95743bbc72afc4cebf8528845a866fdb03210d9d160f9e06be",
	},
	4: {
		"fig10":          "029cd21beeb189eb55614033dd27e0f81f5d7d04f987d5fbf65f4ec06bcce3f6",
		"table4-ci":      "f8d182079f51572c227bfb6debcc4800e7f9d626fbc12f4210a1b4dc30d1e827",
		"sched-shootout": "43cd041763e001b2f197547910f4f6edd93a124f1aac2dd15cace737e78042d8",
		"fabric":         "1f55982fb47104f6a264ed26b8a3972a7132dc242de5ddbff3e3166429481971",
	},
	5: {
		"fig10":          "d7c9077621c049db0b9aef1a852b2cea3475e4851aa9c4e6f0c9731c8092a202",
		"table4-ci":      "6cbcb19eec364e2fc67d4465e62aa6bc6539ff02f3e44a1412f57b070c9e3289",
		"sched-shootout": "445e4f79d533b9f32578dc63b456d5033ffc6f3e5bc68174e9383e637491b775",
		"fabric":         "7940f81cfc060e2ec6a5b2311a9d16833ee80d7cfc63b903adcea8fd3fbe3cbf",
	},
	6: {
		"fig10":          "fc7173fb2462f6db6fda5901bdc8855877ae38a3b2c5569b0f0cc042eb351f18",
		"table4-ci":      "78cb824843a0270ba9daf34ee7af7ee0eefb0a0c5d5304eedafc99e38477bde7",
		"sched-shootout": "f6bcf4207c216504f24b688e00ca541782670e6622c7f154909a0d4e9bb0d749",
		"fabric":         "c69189f67bad679b6bfc03969e4df5a429bd6db635d7e4fda131c55cc5781a42",
	},
	7: {
		"fig10":          "a5f8e2bfdc6ef7985c262319489784ae90b7e4fcdac90ca1848ad3dccf43c819",
		"table4-ci":      "50f6674423e6370e118f816ea7f13e6c943741a7c52cba09f140f8e0de563528",
		"sched-shootout": "a9bf872187d55afc7deacbb44d551b8e8346bc53f8f7bdbcbbea98e93b511ed0",
		"fabric":         "3458a6970adc09bfcb660fc99257d2295744a45e436e59308b3787d0eecfa16c",
	},
	8: {
		"fig10":          "4ea05bf0399002b29a4e152d35cad9f99ffe16b286b77f7588b7b033939d99b6",
		"table4-ci":      "6dd8b20ce29a9a13b1d3c31a140f18f9015a3962b3b78bc0651d19a40cbc5a45",
		"sched-shootout": "c2475c0087bcf3447819a9e8ebd7c399ca4d70cc4af239a17b137bbfb24985ba",
		"fabric":         "8b54b651b62feb67332030d0b1822a5444661cb286655b5054d70568b40eb0bc",
	},
	9: {
		"fig10":          "03e70f5c43b449e435f0a08b812afd7aa44d05c5295bfe1f56f76d408b5f7fc4",
		"table4-ci":      "6b65af57b21b7a6c14dc97778553800d0758f7a62fefaf588e9138fb9775fe82",
		"sched-shootout": "801a5373de411036295b14c215a591b91870099dc33eb31247448c0430eb6ad8",
		"fabric":         "38539acaa99f07462bd7e209b53333e682aeecdd71bc3ea817e006e4d8d60580",
	},
	10: {
		"fig10":          "64a960d1c10ba59d53e36d637b695b8eddf4dc118bed89596f56289076d23dda",
		"table4-ci":      "74a13cdd362f018df15d52c1937012e7ed5d7a7b3a69ba67ace07ca2cb6bb544",
		"sched-shootout": "3a6051956b81f2f242263cbb788e3d07f58950c841e93ed9b3511e5fe6a1b87f",
		"fabric":         "c89580fc541575324e76c51a2b15b8e238a01785a228e75b84218c9ff9ae5ddb",
	},
	11: {
		"fig10":          "3b21e38e621d1445155c72c071d90fa57b346899d96934be5ee675614d80e57f",
		"table4-ci":      "581cbc2a425aff1c2388abb13817c59404f5458c2becffad2de32114a97a0c97",
		"sched-shootout": "d42e51812a4f80845dab55fb44cb4aa4ab48d78ccb42fb78dc417246729ad611",
		"fabric":         "4391679aed834977554482d22d2bf0fe0473e7f3dd19cfa50b9532075291ffc8",
	},
	12: {
		"fig10":          "572fc6fc5b911374dc1deaff9c8b6f71340e9430542b01b4fc5614bd49c7e062",
		"table4-ci":      "5d13c5262fcd7c31d155bf125fc76f3fff49103e3721194e83b9b14a184f9108",
		"sched-shootout": "f432c1c345cdf95e8c53ac4308f6c8f4dec33ee6433f4be484601430e0745291",
		"fabric":         "aee42ac3e670952952b98109ffbc03582dd3cf17e0ee767adccef5fc8857439f",
	},
	13: {
		"fig10":          "308987336aad3ca3e3aab642a274d54b840cceb903dae56ca0a71fb0c04c3eb7",
		"table4-ci":      "9bf8df5757b4d97ca790b0e4925761d8ae8728d2de038883450d2ec339ddc621",
		"sched-shootout": "4ba0faa07648e3e8e9b891930aee03c6dcbc79d9dfd92ac610251344fccd06cc",
		"fabric":         "d2f5c7f6ccab82353ded85111906758f9c902bea9dfb5a62a93a99361b0103b4",
	},
	14: {
		"fig10":          "767e246bc3be675944daef28a3aa9a309dce2047fff2a6ce1a0dee6c313252e9",
		"table4-ci":      "9305ba2bd61d633c555c57046c83cbec3f2daeee94b825a5ae210640383126b4",
		"sched-shootout": "20d79bfa539c01c293ab207de18822a77dcbdd241f9cf894727bb323e0c7e2cc",
		"fabric":         "53d0a8ac3a8972abec0d33431f309dc7c238249bda7f817f6fc3e69610a939bf",
	},
	15: {
		"fig10":          "918ba03a40f39d3c4d932b99882968a84f288347da75207c088f72afa5280bce",
		"table4-ci":      "6c3fc7dd8a47f0222ff6c6e05843b6972384adaae59cd424316f29d1db6a0411",
		"sched-shootout": "1443f52013543c123169be311ddbd1ae7751511581356b3f48e5677a2c8070c5",
		"fabric":         "a0424af9954fa83adb9779cfc7e7315ef498c098525a724f6aa13f5348793cb2",
	},
	16: {
		"fig10":          "25f9f93821caa7cfaa16ab088a8a71e7b4d9bfe7e80c519f7ec487809146536a",
		"table4-ci":      "27c68112f4f346e1edd280faa8a4af4ee01c5a973a192157ba4abc9651dd7510",
		"sched-shootout": "edb59ecd555571c5c3714ac4d4c4a49da882c550c5112f72e34f9025180fbe68",
		"fabric":         "75f6f4a140a058445f105899bac01a46fdcf37bd348075302b093437a67039e5",
	},
}

(* The first 64 draws of each [Sim.Prng] generator for seeds 1 and 7,
   taken from the boxed-state implementation the unboxed one replaced.
   Regenerate only if the stream is meant to change: every simulated
   nanosecond is drawn from it. *)

type stream = {
  seed : int;
  int64s : int64 array;  (** [next_int64] *)
  floats : float array;  (** [float] *)
  ints : int array;  (** [int ~bound:(1 + 977 * i)] for draw [i] *)
  jitters : float array;  (** [jitter ~amplitude:0.15] *)
}

let streams =
  [
    {
      seed = 1;
      int64s =
        [|
          0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL;
          0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L;
          0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L; 0x491718de357e3da8L;
          0xcb435c8e74616796L; 0x6775dc7701564f61L; 0x9afcd44d14cf8bfeL;
          0x7476cf8a4baa5dc0L; 0x87b341d690d7a28aL; 0x6f9b6dae6f4c57a8L;
          0x2ac2ce17a5794a3bL; 0xa534a6a6b7fd0b63L; 0xd0bad0da572baaf1L;
          0xae84379630af89eeL; 0xe263183773ef6508L; 0x10e2c46865e98746L;
          0x14d7973c5c2a449cL; 0x7ef1fd0ed1548fcdL; 0x1f8410633ef306acL;
          0x497305c5d1aab99fL; 0xc43407dc177b6f7L; 0x83f91ca7864a7135L;
          0xb6b9aeef0d2df7abL; 0xb331645445bcd27L; 0xff6c67e81909778aL;
          0x990cd70b12c5d084L; 0x962b1967c90789baL; 0x65ace2685a072c6dL;
          0x70616f2f48dce01cL; 0x40d6824e2ef3fc17L; 0x879e2e2256feff0cL;
          0x8b2e02445e4be0f5L; 0xbf8c59bb003553c1L; 0xd16aa4b296eb9d18L;
          0xab27a171be5b133cL; 0xdca0c749607e2c86L; 0xb54b3c40881e2907L;
          0x3c821fbf59108163L; 0xa7ff0d388687ffb2L; 0xde70d1019fc66081L;
          0xd6de6acd12c87e38L; 0x530e0e6118e9685eL; 0x28bff9ea304d9f96L;
          0xe4d9303221373073L; 0xe9a6100461edd57aL; 0x4d4673ef77ba0574L;
          0x21af8cfd4c4cbee5L; 0x536000f4bd6ae8f8L; 0xf0af3ce429ca1790L;
          0x64c70b0b0c5b4a8fL; 0x167587272751ecafL; 0x9b679c859acd7aafL;
          0x27cd5f9ec8c694ccL; 0xf55540b2bff06252L; 0xe02852925a4dc852L;
          0x86c5d1b05ce2ce14L; 0x1180b23a1075b77fL; 0xc09a1a817914ffbcL;
          0x88b894e1401ed25bL;
        |];
      floats =
        [|
          0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
          0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1;
          0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2;
          0x1.9686b91ce8c2cp-1; 0x1.9dd771dc05592p-2; 0x1.35f9a89a299f1p-1;
          0x1.d1db3e292ea96p-2; 0x1.0f6683ad21af4p-1; 0x1.be6db6b9bd314p-2;
          0x1.561670bd2bca4p-3; 0x1.4a694d4d6ffa1p-1; 0x1.a175a1b4ae575p-1;
          0x1.5d086f2c615f1p-1; 0x1.c4c6306ee7decp-1; 0x1.0e2c46865e98p-4;
          0x1.4d7973c5c2a4p-4; 0x1.fbc7f43b45522p-2; 0x1.f8410633ef3p-4;
          0x1.25cc171746aaep-2; 0x1.88680fb82ef6p-5; 0x1.07f2394f0c94ep-1;
          0x1.6d735dde1a5bep-1; 0x1.6662c8a88b79p-5; 0x1.fed8cfd03212ep-1;
          0x1.3219ae16258bap-1; 0x1.2c5632cf920f1p-1; 0x1.96b389a1681cap-2;
          0x1.c185bcbd23738p-2; 0x1.035a0938bbcfep-2; 0x1.0f3c5c44adfdfp-1;
          0x1.165c0488bc97cp-1; 0x1.7f18b376006aap-1; 0x1.a2d549652dd73p-1;
          0x1.564f42e37cb62p-1; 0x1.b9418e92c0fc5p-1; 0x1.6a967881103c5p-1;
          0x1.e410fdfac884p-3; 0x1.4ffe1a710d0ffp-1; 0x1.bce1a2033f8ccp-1;
          0x1.adbcd59a2590fp-1; 0x1.4c38398463a5ap-2; 0x1.45ffcf51826ccp-3;
          0x1.c9b26064426e6p-1; 0x1.d34c2008c3dbap-1; 0x1.3519cfbddee8p-2;
          0x1.0d7c67ea6265cp-3; 0x1.4d8003d2f5abap-2; 0x1.e15e79c853942p-1;
          0x1.931c2c2c316d2p-2; 0x1.67587272751e8p-4; 0x1.36cf390b359afp-1;
          0x1.3e6afcf646348p-3; 0x1.eaaa81657fe0cp-1; 0x1.c050a524b49b9p-1;
          0x1.0d8ba360b9c59p-1; 0x1.180b23a1075bp-4; 0x1.81343502f229fp-1;
          0x1.117129c2803dap-1;
        |];
      ints =
        [|
          0; 287; 1593; 2159; 1958; 998; 3684; 2965;
          6875; 386; 1505; 1178; 10755; 5204; 3074; 7675;
          12907; 7029; 17283; 11028; 3523; 9950; 14576; 3308;
          20346; 2407; 13609; 25803; 5212; 26562; 10735; 24826;
          9534; 4186; 16994; 10876; 14263; 36073; 31746; 26620;
          9005; 34467; 10770; 21750; 12001; 32510; 7340; 25558;
          42477; 22916; 35379; 39581; 32649; 33204; 28573; 31135;
          48862; 52842; 4816; 48510; 32846; 1865; 47358; 35163;
        |];
      jitters =
        [|
          0x1.051ca7608f80bp+0; 0x1.12e04416d1aaep+0; 0x1.242c4a7ae4f58p+0;
          0x1.f7741d8a288e7p-1; 0x1.f770661bb09aap-1; 0x1.1430b6ccab398p+0;
          0x1.1cfafa20a6f6ap+0; 0x1.01c584eaebd8ap+0; 0x1.df0ddbb8867efp-1;
          0x1.1694355defb6dp+0; 0x1.f146b77a9a66fp-1; 0x1.0818a6171fd7ep+0;
          0x1.f914161fc6ffdp-1; 0x1.024f608d2b73ep+0; 0x1.f62a0e9bdc61p-1;
          0x1.ccdb4874967bfp-1; 0x1.0b29653203ff2p+0; 0x1.18380b74b3c05p+0;
          0x1.0df4771375017p+0; 0x1.1d8420dd6f94ap+0; 0x1.bd54dc3ea38c1p-1;
          0x1.bfb48df104195p-1; 0x1.ff5dfe3c1732bp-1; 0x1.c61c09d525c5p-1;
          0x1.df450376b1p-1; 0x1.ba8ec04b7414ap-1; 0x1.0131223241e32p+0;
          0x1.106ae7ae1d8dcp+0; 0x1.b9eb73c32903ep-1; 0x1.263a1f2c0782dp+0;
          0x1.0783da1cec082p+0; 0x1.06a6879f22b57p+0; 0x1.f03487d836044p-1;
          0x1.f6a0dc4f921e2p-1; 0x1.da1a4e2ee8f8cp-1; 0x1.02490dd71a194p+0;
          0x1.035a9a47b5e39p+0; 0x1.13108151b3433p+0; 0x1.186ccb026079ep+0;
          0x1.0cf24a0885e82p+0; 0x1.1bc9d562d025ep+0; 0x1.0ffcf879c26f7p+0;
          0x1.d781463f9bd6bp-1; 0x1.0bffb72a8ec26p+0; 0x1.1c550b807cbb8p+0;
          0x1.1a0f8670b8d5cp+0; 0x1.e5086f070ef27p-1; 0x1.cba662bfb694fp-1;
          0x1.1e41280f09f6fp+0; 0x1.1fb1d19aea2dcp+0; 0x1.e190abf614a2dp-1;
          0x1.c7695497fa947p-1; 0x1.e5399a2c71a68p-1; 0x1.21ce2bde0c896p+0;
          0x1.efaaa039d436cp-1; 0x1.c0aceab117978p-1; 0x1.0838aef4e1a4p+0;
          0x1.cb14d2f8dedd8p-1; 0x1.23332d026cc82p+0; 0x1.1cd8e5924e4a8p+0;
          0x1.0208254e8244p+0; 0x1.bdb39e22d6adp-1; 0x1.13616e5a0ab98p+0;
          0x1.029dc643933c7p+0;
        |];
    };
    {
      seed = 7;
      int64s =
        [|
          0x63cbe1e459320dd7L; 0x44c3cd7f43c661cL; 0xe6984080bab12a02L;
          0x953aeb70673e29cbL; 0x73d33b666a1e21daL; 0x3fdabe86cbbeaa11L;
          0x77cbc4a133c2d0f6L; 0x53fcd6513d02befeL; 0x225ec07a99506761L;
          0x69c3a27688795369L; 0x1a82e79b05b5faebL; 0xf5ba4eb728dd632cL;
          0xeb0354df4a45b34eL; 0xdf0f9924a3016430L; 0xdd2f9b2d0b5f15e6L;
          0x8c5c906b1aeb85f8L; 0xe12e5d006cd3d6afL; 0x538c6a0cda7326c7L;
          0x9e7eb00e4c9c9e35L; 0xc1dfda7a5eb236f8L; 0xacb06798004bbc2fL;
          0x1b5051c62d0332cdL; 0x582d6717a91d279dL; 0x6c7c5b1c60b890ffL;
          0xe70cd6df5d49ce30L; 0xf5d81f333a1fb9e9L; 0x13a16201310d9abaL;
          0x683409b1f2fb545fL; 0xe6df52ffdf834b47L; 0x6a3f7fb9fcd4241dL;
          0xf89c5aca8c448a78L; 0xde2b0ab6b89f8acL; 0x62184fdaeffa95c8L;
          0x4857c52e70ded4d2L; 0x8eb67bb2bf528e01L; 0x9b5554bef5ebf42bL;
          0x1363f25caeb7c570L; 0xef6841424a61a275L; 0x35e1803bf4585807L;
          0x2d0d723fd1859e5bL; 0xa4d4f04889d20de1L; 0xeb7a07aacd555fc9L;
          0x61cc42d4094b9c40L; 0xef74aa7dd7f4aecL; 0xa45f286b9e7d382L;
          0x51ce3318362240f6L; 0x880e43ed5da9a60fL; 0xd3f183c986aec07eL;
          0xd868da3886729b56L; 0xa4d21225283af2e8L; 0xabaab8919ec9278aL;
          0x5c90961b7f936d22L; 0x10987a47c025a152L; 0x40a76d853561f4e6L;
          0x92d2510fbb0ec12bL; 0x38dda1232865cd13L; 0x7fa5a4e0c4f4480eL;
          0x55f053ed7217c6a7L; 0x9211e20229fc1eaaL; 0x9dc443bfb29af542L;
          0x5aee8a91c100fde6L; 0x5edecf33512736daL; 0xdfcd10ef51504e8aL;
          0x66cd25813e9b65b8L;
        |];
      floats =
        [|
          0x1.8f2f879164c82p-2; 0x1.130f35fd0f18p-6; 0x1.cd30810175625p-1;
          0x1.2a75d6e0ce7c5p-1; 0x1.cf4ced99a8788p-2; 0x1.fed5f4365df54p-3;
          0x1.df2f1284cf0b4p-2; 0x1.4ff35944f40aep-2; 0x1.12f603d4ca83p-3;
          0x1.a70e89da21e54p-2; 0x1.a82e79b05b5f8p-4; 0x1.eb749d6e51bacp-1;
          0x1.d606a9be948b6p-1; 0x1.be1f32494602cp-1; 0x1.ba5f365a16be2p-1;
          0x1.18b920d635d7p-1; 0x1.c25cba00d9a7ap-1; 0x1.4e31a83369cc8p-2;
          0x1.3cfd601c99393p-1; 0x1.83bfb4f4bd646p-1; 0x1.5960cf3000977p-1;
          0x1.b5051c62d033p-4; 0x1.60b59c5ea4748p-2; 0x1.b1f16c7182e24p-2;
          0x1.ce19adbeba939p-1; 0x1.ebb03e66743f7p-1; 0x1.3a16201310d98p-4;
          0x1.a0d026c7cbed4p-2; 0x1.cdbea5ffbf069p-1; 0x1.a8fdfee7f3508p-2;
          0x1.f138b59518891p-1; 0x1.bc56156d713fp-5; 0x1.88613f6bbfea4p-2;
          0x1.215f14b9c37b4p-2; 0x1.1d6cf7657ea51p-1; 0x1.36aaa97debd7ep-1;
          0x1.363f25caeb7cp-4; 0x1.ded0828494c34p-1; 0x1.af0c01dfa2c2cp-3;
          0x1.686b91fe8c2ccp-3; 0x1.49a9e09113a41p-1; 0x1.d6f40f559aaabp-1;
          0x1.87310b50252e6p-2; 0x1.dee954fbafe9p-5; 0x1.48be50d73cfap-5;
          0x1.4738cc60d889p-2; 0x1.101c87dabb534p-1; 0x1.a7e307930d5d8p-1;
          0x1.b0d1b4710ce53p-1; 0x1.49a4244a5075ep-1; 0x1.575571233d924p-1;
          0x1.7242586dfe4dap-2; 0x1.0987a47c025ap-4; 0x1.029db614d587cp-2;
          0x1.25a4a21f761d8p-1; 0x1.c6ed0919432e4p-3; 0x1.fe96938313d12p-2;
          0x1.57c14fb5c85fp-2; 0x1.2423c40453f83p-1; 0x1.3b88877f6535ep-1;
          0x1.6bba2a470403ep-2; 0x1.7b7b3ccd449ccp-2; 0x1.bf9a21dea2a09p-1;
          0x1.9b349604fa6d8p-2;
        |];
      ints =
        [|
          0; 306; 1384; 827; 2919; 3653; 2769; 4238;
          4306; 7623; 1318; 960; 2178; 3406; 986; 8504;
          232; 9167; 14264; 3892; 7079; 18469; 2764; 7047;
          5259; 20619; 18758; 3075; 8355; 9545; 20107; 4316;
          10298; 17704; 18778; 18551; 15789; 30507; 3637; 14947;
          23483; 24471; 34104; 10556; 9440; 14810; 6052; 42078;
          7722; 46530; 36184; 1250; 25598; 36376; 42148; 16579;
          42538; 17603; 12096; 35262; 45340; 52940; 1013; 48920;
        |];
      jitters =
        [|
          0x1.ef13edef68b7ap-1; 0x1.b5c757b4c5bddp-1; 0x1.1ec7468d04cecp+0;
          0x1.065e79d4ebc5dp+0; 0x1.f8b1f070a6121p-1; 0x1.d9833f1dad726p-1;
          0x1.fb13dc60b8a81p-1; 0x1.e597b3ca57ce7p-1; 0x1.c7d2737cc2637p-1;
          0x1.f2a894ad85159p-1; 0x1.c31b57c369d39p-1; 0x1.23517e03bf75ap+0;
          0x1.201a99762fe1bp+0; 0x1.1c84adf1641ap+0; 0x1.1bf4ae8d83695p+0;
          0x1.03b55e8688137p+0; 0x1.1d27824ced72cp+0; 0x1.e5543fa14fdebp-1;
          0x1.0926019de3c89p+0; 0x1.13c327f182cf1p+0; 0x1.0d681f140016bp+0;
          0x1.c3969776e7cebp-1; 0x1.e81b3ddaff117p-1; 0x1.f44a9d1106d52p-1;
          0x1.1eea407635962p+0; 0x1.235a6fc2916fep+0; 0x1.befa6e00b7082p-1;
          0x1.f1b8d29df8306p-1; 0x1.1edc98e65ca76p+0; 0x1.f2f2e63c647f4p-1;
          0x1.242ee809907afp+0; 0x1.bb88039a0d52cp-1; 0x1.ee0e965029965p-1;
          0x1.de9b0fe8aa1f4p-1; 0x1.0469f1e8d2ff2p+0; 0x1.0833330616939p+0;
          0x1.bed5916acf3b1p-1; 0x1.216c1393e31d4p+0; 0x1.d3874cf0c5ceap-1;
          0x1.ce3b448cb0e9cp-1; 0x1.0b0cae7c2958ap+0; 0x1.203e35800a666p+0;
          0x1.ede0f4e59f2d6p-1; 0x1.bc2df997eb4c6p-1; 0x1.b95d2b1da2be4p-1;
          0x1.e448850e86e15p-1; 0x1.026aadfa68e61p+0; 0x1.192edabc75347p+0;
          0x1.1a85db10f5226p+0; 0x1.0b0bd23e58de8p+0; 0x1.0d199dc5493c5p+0;
          0x1.eabd26dd4c8bap-1; 0x1.bd28495e40169p-1; 0x1.d9fe0e8320079p-1;
          0x1.05a57eb7eb514p+0; 0x1.d551c715183d1p-1; 0x1.ffc9c953a95f6p-1;
          0x1.e6c3658e77a7dp-1; 0x1.056bc3cd72fedp+0; 0x1.08ee14531bfb4p+0;
          0x1.e9c25324409a3p-1; 0x1.ec1f491eca4abp-1; 0x1.1cbd85149864ep+0;
          0x1.f0e17ce725906p-1;
        |];
    };
  ]

"""Byte-identical CLI output on a fixed invocation set.

"Same behaviour" for this package means the suite passes and the reports
below keep every byte: each case's stdout is hashed and compared with the
sha256 recorded before the integer character-table core replaced the
recursive Murnaghan-Nakayama evaluation (the two os-scan cases at the desk
caps: before the closed-form characters replaced the trace on the NBC
basis; the two past the caps: before the coinvariant verdicts were read
off the dimensions instead of integer ranks; the two wreath-scan cases at
the end: before the graded-symmetric power series replaced the class
sums; the seven other table1 rows and the last two bounds cases: before
the page, E-infinity and abutment bounds became one entry formula and
Table 1 became a data table).  A deliberate change of a report updates the table; print the
current digests with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import shlex
import tempfile
from pathlib import Path

import pytest

from fistab.cli import main

# inputs of the README examples that read a file: the k=1 configuration
# space sequence, as decompositions and as characters
SEQUENCE = {"entries": {
    "2": {"2": 1},
    "3": {"2+1": 1, "3": 1},
    "4": {"2+2": 1, "3+1": 1, "4": 1},
    "5": {"3+2": 1, "4+1": 1, "5": 1},
    "6": {"4+2": 1, "5+1": 1, "6": 1},
}}
CHARACTERS = {"entries": {
    "2": {"1+1": 1, "2": 1},
    "3": {"1+1+1": 3, "2+1": 1, "3": 0},
    "4": {"1+1+1+1": 6, "2+1+1": 2, "2+2": 2, "3+1": 0, "4": 0},
    "5": {"1+1+1+1+1": 10, "2+1+1+1": 4, "2+2+1": 2, "3+1+1": 1, "3+2": 1,
          "4+1": 0, "5": 0},
    "6": {"1+1+1+1+1+1": 15, "2+1+1+1+1": 7, "2+2+1+1": 3, "2+2+2": 3,
          "3+1+1+1": 3, "3+2+1": 1, "3+3": 0, "4+1+1": 1, "4+2": 1,
          "5+1": 0, "6": 0},
}}

CASES = (
    # the README examples
    "character --lam 2+1 --mu 1+1+1",
    """decompose --n 3 --values '{"1+1+1": 3, "2+1": 1, "3": 0}'""",
    "m-module --lam 2 --n 4",
    "m-module --regular 2 --n 5",
    "stability-scan --input sequence.json",
    "fit-charpoly --input characters.json --degree-bound 2",
    """fit-dimpoly --dims '{"2":1,"3":3,"4":6,"5":10,"6":15}' --degree-bound 2""",
    "bounds --alpha 1 --beta 2 --i 3",
    "bounds --alpha 1 --beta 2 --i 3 --degenerates-at 3",
    "bounds --alpha 0 --beta 1 --i 2 --page 4 --p 2 --q 1",
    "bounds --alpha 1 --beta 2 --i 3 --fisharp",
    "table1 --row moduli --i 2",
    "os-scan --n-min 2 --n-max 8 --k 1 --a-max 3",
    "wreath-scan --graded-dims 1,2 --i 1 --n-max 8",
    "kunneth --graded-dims 1,2 --n 3 --i 1 --decompose",
    # the configuration-space model, Kunneth powers and wreath products
    "os-scan --n-min 2 --n-max 7 --k 1",
    "os-scan --n-min 2 --n-max 7 --k 2",
    "os-scan --n-min 2 --n-max 7 --k 3",
    "kunneth --graded-dims 1,2 --n 12 --i 3 --decompose",
    "wreath-scan --graded-dims 1,2 --i 2 --n-max 20",
    # os-scan at the desk caps, as the benchmark runs it
    "os-scan --n-min 2 --n-max 10 --k 2 --a-max 3",
    "os-scan --n-min 2 --n-max 8 --k 3 --a-max 3",
    # os-scan past the desk caps, as the benchmark runs it
    "os-scan --n-min 2 --n-max 12 --k 2 --a-max 3 --allow-large",
    "os-scan --n-min 2 --n-max 9 --k 3 --a-max 3 --allow-large",
    # wreath-scan as the benchmark runs it, and with zero gaps and an odd
    # multiplicity above 1
    "wreath-scan --graded-dims 1,2 --i 2 --n-max 30",
    "wreath-scan --graded-dims 1,0,3,1 --i 4 --n-min 3 --n-max 16",
    # every other table1 row, and the bounds paths that share one entry
    # formula: an abutment sharpened at a later page and a zero alpha at i=0
    "table1 --row config_surface_closed --i 3",
    "table1 --row config_surface_boundary --i 3",
    "table1 --row config_surface_open --i 3",
    "table1 --row pmod_surface_boundary --i 3",
    "table1 --row pmod_highdim --i 3",
    "table1 --row pmod_highdim_boundary --i 3",
    "table1 --row bpdiff --i 3",
    "bounds --alpha 1/3 --beta 1 --i 4 --degenerates-at 5",
    "bounds --alpha 0 --beta 2 --i 0",
)
FORMATS = ("json", "text", "csv")

DIGESTS = {
    ('character --lam 2+1 --mu 1+1+1', 'json'):
        '7c958cb43a5d49fd9485a61a75e415d1e63108d34bdef5950232663acb8e7925',
    ('character --lam 2+1 --mu 1+1+1', 'text'):
        '20406a061d25b3bbe7384d2c649e455c58e2238b5576c3f20f277fe9bb1d602e',
    ('character --lam 2+1 --mu 1+1+1', 'csv'):
        '81945fa5138cf833056d5f65f1145cc2a420712fa31913d8f55393d7173cfb2a',
    ('decompose --n 3 --values \'{"1+1+1": 3, "2+1": 1, "3": 0}\'', 'json'):
        'b4a173c6842e6b025e9915cafb56c20e8e6275cf0c9fc9c9adf279b781108057',
    ('decompose --n 3 --values \'{"1+1+1": 3, "2+1": 1, "3": 0}\'', 'text'):
        '793103a6e2d6194d22c9b6786d25049daf2b723d4abcecbb926218636120d2aa',
    ('decompose --n 3 --values \'{"1+1+1": 3, "2+1": 1, "3": 0}\'', 'csv'):
        '29628b722a80bfe684ba1c4ae0a299684d177becc1e0ff8f0eccc6128ccb5fb9',
    ('m-module --lam 2 --n 4', 'json'):
        '47737e655dc75aa95dfd1c1a480a5d5f135784dc4102f20648ddc1be45caa561',
    ('m-module --lam 2 --n 4', 'text'):
        '2e85bb1194656a841735b38a521645c0c7b8319c52916dcbe3bc67a40541ee4b',
    ('m-module --lam 2 --n 4', 'csv'):
        'eefac7dca68451eb7dfba425b0866dc7e430896c7859e98590c5d758e9ce0470',
    ('m-module --regular 2 --n 5', 'json'):
        '90a3afb0f05f9d9a87eb4eee9b57e15fcf913be79e6aa1d7bd3355122d0c49d6',
    ('m-module --regular 2 --n 5', 'text'):
        '361c2d7196ec638fbd50ef879ecfc0af73b3294582bf2c2dbb4e7ed062856fd9',
    ('m-module --regular 2 --n 5', 'csv'):
        'f6782efc76800f5c3fbf3e0594aa3150b82d11302dcccf18fdb60bb4fc758d10',
    ('stability-scan --input sequence.json', 'json'):
        '43d9d3441ef0d2783c7acc27acb29e41734e69ac1c0e4fbaec4698c122eac044',
    ('stability-scan --input sequence.json', 'text'):
        '497d2775b5f0595a14642eaf89e21ed1a9c4fd5948f85b501f63f4e809327756',
    ('stability-scan --input sequence.json', 'csv'):
        '4aa34d7e9b86ac97cffc230332951e8a006f5d149f61622969fa6883667bb6b0',
    ('fit-charpoly --input characters.json --degree-bound 2', 'json'):
        '5096c5eb0c00dfca4a4b91bbc3bd896b701af1011dfbbafbd922a2451ed23727',
    ('fit-charpoly --input characters.json --degree-bound 2', 'text'):
        'cc091159107ec7d8f53aa6fad4a2ed04b261d7eb5d92a32e420afca34a7bda01',
    ('fit-charpoly --input characters.json --degree-bound 2', 'csv'):
        '25c7cf5f9ab62925101c0859540ad6c75b2e25420d9e16aebb7efc50bd69e4a1',
    ('fit-dimpoly --dims \'{"2":1,"3":3,"4":6,"5":10,"6":15}\' --degree-bound 2', 'json'):
        '7276aed2d12de5bc4d7e1d926568ef7c9874eb973ddce2b73b84ca3af910a5b2',
    ('fit-dimpoly --dims \'{"2":1,"3":3,"4":6,"5":10,"6":15}\' --degree-bound 2', 'text'):
        '0183e3874bfce1258ffbd78b8c5a7f6aeb60885364bd4f9d4f48dedb46cc7754',
    ('fit-dimpoly --dims \'{"2":1,"3":3,"4":6,"5":10,"6":15}\' --degree-bound 2', 'csv'):
        '8c80fa469139219d94fead258c307293e065c4ee14ed5623dd3d7f86c5afcf89',
    ('bounds --alpha 1 --beta 2 --i 3', 'json'):
        'b6fda1ade40a1179466750956e22f4d58527e46d76d832d2160fabce800805ed',
    ('bounds --alpha 1 --beta 2 --i 3', 'text'):
        '5424061fd6943f2ce9ae5e5f0b283ce510d9395102af1d28e6925214f5754a3c',
    ('bounds --alpha 1 --beta 2 --i 3', 'csv'):
        '1c0cb30a445635c3756295852460dd0da1b94169bbc427abd312eefb9ce49859',
    ('bounds --alpha 1 --beta 2 --i 3 --degenerates-at 3', 'json'):
        '75870e713d982ffc5e96986029f365be3e6a5e7b8d211fcd82d39e929205da52',
    ('bounds --alpha 1 --beta 2 --i 3 --degenerates-at 3', 'text'):
        'a60c4be8d4e27cf1089964eca040469cd65ed252917ed066034658fafe6ce680',
    ('bounds --alpha 1 --beta 2 --i 3 --degenerates-at 3', 'csv'):
        'acdde4b5a62a2b77fe4912947c624099ff02e8b09ce1ff2a70bc200b3f6946b3',
    ('bounds --alpha 0 --beta 1 --i 2 --page 4 --p 2 --q 1', 'json'):
        'bbcccaa871325b5a9a131111e67a81a5cf2e60d0a5cc7fab8a8230c79bcdd04d',
    ('bounds --alpha 0 --beta 1 --i 2 --page 4 --p 2 --q 1', 'text'):
        '6e3330a2b5303768b59cc20bb4ac2aa483e89eb52ff54bc94c92786b9e09f0d9',
    ('bounds --alpha 0 --beta 1 --i 2 --page 4 --p 2 --q 1', 'csv'):
        '93c832b4e4225988f0b2ecbbcf06b67a62e230037c93b2070065e3eaaa96f393',
    ('bounds --alpha 1 --beta 2 --i 3 --fisharp', 'json'):
        '7009334e0a1a4b66e0396e6b2df5046532f4d0ffdccab6f967c93a197d7e4730',
    ('bounds --alpha 1 --beta 2 --i 3 --fisharp', 'text'):
        'c12add806a1388b2e841f5b308dd0894fc850f4e05ed5e14631d9981e356fc0f',
    ('bounds --alpha 1 --beta 2 --i 3 --fisharp', 'csv'):
        '42b7ecfb6ba72754ed1c4a69ba05b2eacee54d2ff477544b373eee18ce853d9d',
    ('table1 --row moduli --i 2', 'json'):
        '1410f726078680a33d924bdb14a91a948f29603dbff0027270b3c7af6fa88544',
    ('table1 --row moduli --i 2', 'text'):
        '92b3e4b8b9e5c6021eceb1b7ed8be33b804bfbd13535fc1c2d77e1f6dd392fb1',
    ('table1 --row moduli --i 2', 'csv'):
        '0fee4f0a3b9df16230c69f0b2ac0e4a2c2455cabfc76e2326f8da0dbe7f85ce4',
    ('os-scan --n-min 2 --n-max 8 --k 1 --a-max 3', 'json'):
        '0e292695dce7785850708574e4e18a59d8899b1e28ce286cb2c6f572a98db354',
    ('os-scan --n-min 2 --n-max 8 --k 1 --a-max 3', 'text'):
        'd13c4ff116671644dc91fb521ffb9c526cab2e19f9af18aea44b84b9a68645d8',
    ('os-scan --n-min 2 --n-max 8 --k 1 --a-max 3', 'csv'):
        'e4f92f6360fe203619acba364953e8b2a42d26e7dcca3d3e9ffbe96164f7d5ea',
    ('wreath-scan --graded-dims 1,2 --i 1 --n-max 8', 'json'):
        '8ed49aaccd88c7c6ae6771d37b286e441836be6f3a1f2a6d9cbd6752155c3154',
    ('wreath-scan --graded-dims 1,2 --i 1 --n-max 8', 'text'):
        'e97f05451662aed3c9665790429cdbbcf9c74a29f20641e420179b332845890a',
    ('wreath-scan --graded-dims 1,2 --i 1 --n-max 8', 'csv'):
        '5f8cf1892dc678a9ce5eef93bd32bbf69d56eaa765dbdaf558a8fe1a5c8353c2',
    ('kunneth --graded-dims 1,2 --n 3 --i 1 --decompose', 'json'):
        'fc93ba3ec47a651f84054156a1ae20c5b6172574b6b2cb6277d9ccab3046475d',
    ('kunneth --graded-dims 1,2 --n 3 --i 1 --decompose', 'text'):
        '607c0a20391b035c102602ef1ce275f9f3aa516734b16d019f3945278bdb4af3',
    ('kunneth --graded-dims 1,2 --n 3 --i 1 --decompose', 'csv'):
        'b5e189a4d34c05fe10a2d058d9f005e1304e95ca0dea82f720ef6dbcffae9d3f',
    ('os-scan --n-min 2 --n-max 7 --k 1', 'json'):
        '48ae27343a6832057ec77bbce6e5c66ccd046f7c2d679759eb035d308e196ecf',
    ('os-scan --n-min 2 --n-max 7 --k 1', 'text'):
        'c84b05191f352ab24b240b5e8e7b97b79d7f2047295b6971475fae4eb0731aa4',
    ('os-scan --n-min 2 --n-max 7 --k 1', 'csv'):
        '77907d254ecd5318ae8ba64112f8311b1b1fe7bb03154069b4bc22b20a14b129',
    ('os-scan --n-min 2 --n-max 7 --k 2', 'json'):
        '118e77c4bf6e540c8941ce356eeea0c7c4e702f7b3b92d97434735a51e566552',
    ('os-scan --n-min 2 --n-max 7 --k 2', 'text'):
        'e409bfac947bfc0e1217502b8640e84ae87102ce8b3f18001909f4c8f5320b4c',
    ('os-scan --n-min 2 --n-max 7 --k 2', 'csv'):
        '593df9380a7c4d18fe2a46c2b89f312894eabd36e7ca0b0e1e0662ab1c07971a',
    ('os-scan --n-min 2 --n-max 7 --k 3', 'json'):
        '6427942e85a52f280084742d079f426a4bd68bec63a07e35c3b4bad86044df2c',
    ('os-scan --n-min 2 --n-max 7 --k 3', 'text'):
        '9cbfc100570ed92dd25b652400e23c6142b4c4812ee3f0c6e476c6171d2637d3',
    ('os-scan --n-min 2 --n-max 7 --k 3', 'csv'):
        '358981f319c48785c5d262ba7a230a92df5bbec930654f5af94d90d2c3b39a8c',
    ('kunneth --graded-dims 1,2 --n 12 --i 3 --decompose', 'json'):
        '69ff42c2ed8e2c66e2239926a3b20993d105838a2aed3364d4a3b46fbfc5723a',
    ('kunneth --graded-dims 1,2 --n 12 --i 3 --decompose', 'text'):
        '684b9f2722baca3a3dcabbf1edbfb958e3a0a9b1b9943bb56e58a08b127956b7',
    ('kunneth --graded-dims 1,2 --n 12 --i 3 --decompose', 'csv'):
        'd601435e099e5c06b9812f96c044329c56582af7502ab0561bfe6c38e693c887',
    ('wreath-scan --graded-dims 1,2 --i 2 --n-max 20', 'json'):
        'dae513be38cd2272826e1fd4fa3af70b871f30cedad24261ea07a439e5955953',
    ('wreath-scan --graded-dims 1,2 --i 2 --n-max 20', 'text'):
        '18263a8986c4a41697f1cb1bf9b761ae5a148d7df800e4fd8d9a3e8a7af65335',
    ('wreath-scan --graded-dims 1,2 --i 2 --n-max 20', 'csv'):
        '7d621fbc12260b737dd8c53e04ba7369b8e6a5a891b2835fadef03661ff5f172',
    ('os-scan --n-min 2 --n-max 10 --k 2 --a-max 3', 'json'):
        'd53fe7f4943a305e365ef0bc3abde025ef615ec72e086eb2447786c4f827119b',
    ('os-scan --n-min 2 --n-max 10 --k 2 --a-max 3', 'text'):
        'cc0dae6ffce80481ec3459d2ad309401f929ef33f584884b723bce008ff3c344',
    ('os-scan --n-min 2 --n-max 10 --k 2 --a-max 3', 'csv'):
        '327cf5042e0ac5c6172f37b8bbc7928684ad6ba581c687d5dae7bbc6009c169a',
    ('os-scan --n-min 2 --n-max 8 --k 3 --a-max 3', 'json'):
        '690ece186e4cc0f27859b01130d58dffa980b5d5155d4a64deeea24dc1073cf0',
    ('os-scan --n-min 2 --n-max 8 --k 3 --a-max 3', 'text'):
        '7500025ab331a07044a59e4a0a7af9d3edffc1688308b650ed1f3b2d00bcb157',
    ('os-scan --n-min 2 --n-max 8 --k 3 --a-max 3', 'csv'):
        '625a75bab22168ebf36b75460f3d71ad41c786719a5347c77ef36a785438b09a',
    ('os-scan --n-min 2 --n-max 12 --k 2 --a-max 3 --allow-large', 'json'):
        '5f78b7bb6b8e2ab39a30cac8d700aa1db7a019ab4b2579599344c1792309a1c5',
    ('os-scan --n-min 2 --n-max 12 --k 2 --a-max 3 --allow-large', 'text'):
        '824fb142f613706f91ca6d4a5219ec49a79ef6754ce7a59db377cd800c96ae0b',
    ('os-scan --n-min 2 --n-max 12 --k 2 --a-max 3 --allow-large', 'csv'):
        '11bd82c5aafe1bc6b56268dee15a48e35d3fcc4071d3505194385ee609ab972e',
    ('os-scan --n-min 2 --n-max 9 --k 3 --a-max 3 --allow-large', 'json'):
        '3fb037f70bbffa96d093005414858e63452439e87493d8bee476ada73322e571',
    ('os-scan --n-min 2 --n-max 9 --k 3 --a-max 3 --allow-large', 'text'):
        'cd328e4618fc3b780863c11083e76ac94cdf66fab2218dff0890e2e16e8df04a',
    ('os-scan --n-min 2 --n-max 9 --k 3 --a-max 3 --allow-large', 'csv'):
        'e7e3151d431d8244da2074c9547c39a614c9f264108f8f73fb03e9d67b9757ff',
    ('wreath-scan --graded-dims 1,2 --i 2 --n-max 30', 'json'):
        '1644001b20a75e1b261b2bf805893a7d74bde468407c260cbb951b6026632b75',
    ('wreath-scan --graded-dims 1,2 --i 2 --n-max 30', 'text'):
        '0b5b78fda1534f6936804b0d909008c8599190665c79c1384e6ed7bd1cb03ae8',
    ('wreath-scan --graded-dims 1,2 --i 2 --n-max 30', 'csv'):
        'bb56c31732ae5e3d9c338ede5937cbd6cd4fd4b0d43f2d99754f8ea5a64f264e',
    ('wreath-scan --graded-dims 1,0,3,1 --i 4 --n-min 3 --n-max 16', 'json'):
        '17d5fba8bee71f8c72af4e68c5899dc7235b60a4e0554a0db16e1a8c98ebea97',
    ('wreath-scan --graded-dims 1,0,3,1 --i 4 --n-min 3 --n-max 16', 'text'):
        '164b21ee1ba05a24550a58147972f6f7bf8cfd2cb0ffec3d47173afb48c0c4cf',
    ('wreath-scan --graded-dims 1,0,3,1 --i 4 --n-min 3 --n-max 16', 'csv'):
        'b299fa7cffe905f50536f78b7a88324b39ec1b2dd555e86acdc01152ae82c4bc',
    ('table1 --row config_surface_closed --i 3', 'json'):
        'ca04ceeea78fce380c218851f0497ece00b13a94b3fe8e4fff646c5116368704',
    ('table1 --row config_surface_closed --i 3', 'text'):
        '0f92a075555205d03694360ec7475fa25d58b650242a5c90ab96b25112d45259',
    ('table1 --row config_surface_closed --i 3', 'csv'):
        'fbe9c1ad978e270a9aaefb02e7c7427634624fed20377cae26f0f457abc06edc',
    ('table1 --row config_surface_boundary --i 3', 'json'):
        '0ad357b1a7299adeab0c94a557327f801f3d8b8276544eac3f1097051c5914b0',
    ('table1 --row config_surface_boundary --i 3', 'text'):
        '1c8beb96432799b78de77fc7993068f6f3ff7ae3cd7168bf17cd807fc497577c',
    ('table1 --row config_surface_boundary --i 3', 'csv'):
        '4ba80717068d8b3049e859db3d65498c0dd82a7e6ccd429ca14881d4fe0d1fbc',
    ('table1 --row config_surface_open --i 3', 'json'):
        '0197681b8bf8eed83253fbd3cd390ef69d2158b08f4cdd180ff6bf4fc65fa2bf',
    ('table1 --row config_surface_open --i 3', 'text'):
        '532466b10b546e0e722ff5b15e8e263399a687a4adcf62278cc4ecbb9f4088c5',
    ('table1 --row config_surface_open --i 3', 'csv'):
        'c65a1497367c578e7486823f94088f4b5e1e1eb1832a48a55bda2d693851824c',
    ('table1 --row pmod_surface_boundary --i 3', 'json'):
        'f81eb4eaa5e9f1daf3ec606e572d68730e3b2106dc6018b9e049d96ce4efac7b',
    ('table1 --row pmod_surface_boundary --i 3', 'text'):
        'c9991709c6e7579bb3c3b6c8d61aaecb7ea842defd36da901c37873a57180eb3',
    ('table1 --row pmod_surface_boundary --i 3', 'csv'):
        '6987d7f6f7cf76a1bcb58ecd285290081f241cf942ed1afacdadf3ea2b5238e9',
    ('table1 --row pmod_highdim --i 3', 'json'):
        '22ef5f6e8bbd724e1e42a938a1f06c9fc4e79769cd09236755f3dac0112e51ff',
    ('table1 --row pmod_highdim --i 3', 'text'):
        'e7eef49534ab326ef9ee9b56cfb7341347753543d3a124bac2822b0608047a3e',
    ('table1 --row pmod_highdim --i 3', 'csv'):
        '3f5ef073c0caf85f698eaf4d97a17795e7b868def316f86e3ac82c83d2888737',
    ('table1 --row pmod_highdim_boundary --i 3', 'json'):
        '9538415f8150858a63c79b839a46c4a6a2ebd64507800274335d259776b686e4',
    ('table1 --row pmod_highdim_boundary --i 3', 'text'):
        '9eb86b418250d9107e2265c2953bb2af97307219a4e9040c163bb5d489b6af85',
    ('table1 --row pmod_highdim_boundary --i 3', 'csv'):
        '9001d5685f395fc61b09e87fe4ded6f13c7cd68e73bec792f658cceae4efbca0',
    ('table1 --row bpdiff --i 3', 'json'):
        '39a151fa37c5db28af32df9721f23610ae605718b1b01e27889569404c00a011',
    ('table1 --row bpdiff --i 3', 'text'):
        '033c402162a43b1168ffde22860d7aaaa6aef5f0f9807bbaa01c16540c4c18b3',
    ('table1 --row bpdiff --i 3', 'csv'):
        '4537e20156fcf9a298c76d7141a6497853c494ed63a5e6b02a11c3c6e8965e5f',
    ('bounds --alpha 1/3 --beta 1 --i 4 --degenerates-at 5', 'json'):
        '128db3c296ce3d37ecc9b04bd4952a27777ced1d5b1fb0d169fd5b18d422d598',
    ('bounds --alpha 1/3 --beta 1 --i 4 --degenerates-at 5', 'text'):
        '5b6509f36183b91905871355b3269ac59709b1c72098617a59466e03b2da4741',
    ('bounds --alpha 1/3 --beta 1 --i 4 --degenerates-at 5', 'csv'):
        'e823fca977b7dc32f511d8f8dff0c5306a9cecf694e957801b9c706d82db6f84',
    ('bounds --alpha 0 --beta 2 --i 0', 'json'):
        '4d395b8f82cf5e3d760ff2a203db5f8bfec59376222b88ce4b6b2436a5a7a246',
    ('bounds --alpha 0 --beta 2 --i 0', 'text'):
        '57181a814fcc3b770382adea33b26b364032de546db293126a847fd8e3cd6184',
    ('bounds --alpha 0 --beta 2 --i 0', 'csv'):
        'c80a68f3b2fe97b607e42fe0d22ddcd767cbf80529f813c3214015e8b2f619d1',
}


def _stdout(case: str, fmt: str, files: dict) -> str:
    argv = [files.get(word, word) for word in shlex.split(case)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    assert code == 0 and not err.getvalue(), (case, fmt, err.getvalue())
    return out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_inputs(root: Path) -> dict:
    files = {}
    for name, payload in (("sequence.json", SEQUENCE), ("characters.json", CHARACTERS)):
        path = root / name
        path.write_text(json.dumps(payload))
        files[name] = str(path)
    return files


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_stdout_matches_recorded_digest(case, fmt, input_files):
    assert _digest(_stdout(case, fmt, input_files)) == DIGESTS[case, fmt]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_inputs(Path(tmp))
        print("DIGESTS = {")
        for case in CASES:
            for fmt in FORMATS:
                digest = _digest(_stdout(case, fmt, files))
                print(f"    ({case!r}, {fmt!r}):\n        {digest!r},")
        print("}")
